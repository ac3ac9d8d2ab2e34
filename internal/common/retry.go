package common

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// RetryPolicy bounds the transient-fault retry loop used by the RPC and
// one-sided client paths. The zero value retries with the defaults; use
// NoRetryPolicy to disable retrying entirely.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (first try included).
	// 0 means DefaultRetryAttempts; 1 disables retrying.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; it doubles per
	// attempt (with jitter) up to MaxDelay. 0 means the default.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. 0 means the default.
	MaxDelay time.Duration
}

// Retry defaults: sized for a µs-scale fabric, so even eight attempts cost
// well under a storage I/O.
const (
	DefaultRetryAttempts = 8
	defaultRetryBase     = 20 * time.Microsecond
	defaultRetryMax      = 2 * time.Millisecond
)

// DefaultRetryPolicy returns the production retry policy.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: DefaultRetryAttempts,
		BaseDelay:   defaultRetryBase,
		MaxDelay:    defaultRetryMax,
	}
}

// NoRetryPolicy disables retrying: every transient fault surfaces to the
// caller on the first attempt (chaos ablations, fail-fast deployments).
func NoRetryPolicy() RetryPolicy { return RetryPolicy{MaxAttempts: 1} }

func (p RetryPolicy) fill() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = DefaultRetryAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = defaultRetryBase
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = defaultRetryMax
	}
	return p
}

// IsTransient reports whether err is a transient fabric/storage fault that
// the communication layer itself should retry: an injected fault, a
// partition, or a buffer pool with every frame pinned (the jittered backoff
// below gives in-flight statements time to unpin). Crash fences (ErrNodeDown,
// ErrFenced), deadlocks, deadline expiry, and protocol errors are
// deliberately excluded — those must fail fast so the engine's
// crash-recovery and abort paths keep their semantics.
func IsTransient(err error) bool {
	return errors.Is(err, ErrInjected) || errors.Is(err, ErrUnreachable) ||
		errors.Is(err, ErrOverloaded)
}

// jitterState drives the backoff jitter without math/rand's global lock.
// A fixed seed keeps runs reproducible when ops are issued serially.
var jitterState atomic.Uint64

func init() { jitterState.Store(0x9E3779B97F4A7C15) }

func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	// splitmix64 step.
	z := jitterState.Add(0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return time.Duration(z % uint64(d))
}

// Retry runs op, retrying transient failures (per IsTransient) with
// exponential backoff plus equal jitter, up to p.MaxAttempts attempts.
// Non-transient errors — crash fences, deadlocks, not-found — return
// immediately. The final transient error is wrapped (errors.Is still
// matches ErrInjected/ErrUnreachable) with the attempt count.
func Retry(p RetryPolicy, op func() error) error {
	return RetryDeadline(p, Deadline{}, op)
}

// RetryDeadline is Retry bounded by a caller deadline: the loop never
// sleeps into an exhausted budget. When the next backoff would meet or
// cross the deadline, it returns immediately with the last transient error
// wrapped in ErrDeadlineExceeded (errors.Is matches both), because a
// deadline-bounded caller is better served by a prompt typed failure than
// by one more attempt it can no longer use. A zero Deadline makes this
// identical to Retry.
func RetryDeadline(p RetryPolicy, dl Deadline, op func() error) error {
	err := op()
	if err == nil || !IsTransient(err) {
		return err
	}
	p = p.fill()
	if p.MaxAttempts <= 1 {
		return err
	}
	delay := p.BaseDelay
	for attempt := 2; attempt <= p.MaxAttempts; attempt++ {
		sleep := delay/2 + jitter(delay/2)
		if rem, bounded := dl.Remaining(); bounded && sleep >= rem {
			return fmt.Errorf("retry budget exhausted after %d attempts: %w (last: %w)",
				attempt-1, ErrDeadlineExceeded, err)
		}
		time.Sleep(sleep)
		if err = op(); err == nil || !IsTransient(err) {
			return err
		}
		if delay *= 2; delay > p.MaxDelay {
			delay = p.MaxDelay
		}
	}
	return fmt.Errorf("retries exhausted after %d attempts: %w", p.MaxAttempts, err)
}
