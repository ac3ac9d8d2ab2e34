package main

// Client-side spans for the traced run: one root span per transaction
// attempt and one child span around every call into the session. Spans are
// appended to per-session slices (no locking, one goroutine per session),
// kept in memory, and written out when the run ends.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval. Spans of one transaction share Tx; Parent is
// the ID of the enclosing span, 0 for a root. Times are nanoseconds since
// the trace began.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Tx     int64  `json:"tx"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Statement span names, also the stems of the client.*_us metrics.
const (
	spanTx           = "client.tx"
	spanBegin        = "client.begin"
	spanGet          = "client.get"
	spanGetForUpdate = "client.get_for_update"
	spanUpdate       = "client.update"
	spanCommit       = "client.commit"
	spanRollback     = "client.rollback"
)

var statementSpans = []string{spanBegin, spanGet, spanGetForUpdate, spanUpdate, spanCommit}

// sessionTrace records the spans of one session.
type sessionTrace struct {
	epoch  time.Time
	sess   int64
	n      int64
	spans  []span
	tx     int64 // current transaction attempt
	parent int64 // its root span
}

func (t *sessionTrace) nextID() int64 {
	t.n++
	return t.n*sessions + t.sess // unique across sessions
}

// beginTx opens the root span of a new transaction attempt.
func (t *sessionTrace) beginTx() (id int64, start time.Time) {
	id = t.nextID()
	t.tx, t.parent = id, id
	return id, time.Now()
}

func (t *sessionTrace) endTx(id int64, start time.Time) {
	t.spans = append(t.spans, span{ID: id, Tx: id, Name: spanTx,
		Start: int64(start.Sub(t.epoch)), End: int64(time.Since(t.epoch))})
}

func (t *sessionTrace) child(name string, start time.Time) {
	t.spans = append(t.spans, span{ID: t.nextID(), Parent: t.parent, Tx: t.tx, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(time.Since(t.epoch))})
}

// tracedSession wraps a session so every call leaves a span.
type tracedSession struct {
	dbSession
	t *sessionTrace
}

func (s *tracedSession) Begin(snapshot bool) (dbTx, error) {
	t0 := time.Now()
	tx, err := s.dbSession.Begin(snapshot)
	s.t.child(spanBegin, t0)
	if err != nil {
		return nil, err
	}
	return &tracedTx{dbTx: tx, t: s.t}, nil
}

type tracedTx struct {
	dbTx
	t *sessionTrace
}

func (x *tracedTx) Get(table int, key []byte) ([]byte, error) {
	t0 := time.Now()
	v, err := x.dbTx.Get(table, key)
	x.t.child(spanGet, t0)
	return v, err
}

func (x *tracedTx) GetForUpdate(table int, key []byte) ([]byte, error) {
	t0 := time.Now()
	v, err := x.dbTx.GetForUpdate(table, key)
	x.t.child(spanGetForUpdate, t0)
	return v, err
}

func (x *tracedTx) Update(table int, key, value []byte) error {
	t0 := time.Now()
	err := x.dbTx.Update(table, key, value)
	x.t.child(spanUpdate, t0)
	return err
}

func (x *tracedTx) Commit() error {
	t0 := time.Now()
	err := x.dbTx.Commit()
	x.t.child(spanCommit, t0)
	return err
}

func (x *tracedTx) Rollback() error {
	t0 := time.Now()
	err := x.dbTx.Rollback()
	x.t.child(spanRollback, t0)
	return err
}

// tracer owns the per-session recorders of one traced phase.
type tracer struct {
	sess []*sessionTrace
}

func newTracer() *tracer {
	tr := &tracer{}
	epoch := time.Now()
	for i := 0; i < sessions; i++ {
		tr.sess = append(tr.sess, &sessionTrace{epoch: epoch, sess: int64(i)})
	}
	return tr
}

func (tr *tracer) wrap(sess int, s dbSession) dbSession {
	return &tracedSession{dbSession: s, t: tr.sess[sess]}
}

// traceAttempts gives every attempt of inner a root span.
func (tr *tracer) traceAttempts(inner attemptFunc) attemptFunc {
	return func(sess int) (int, error) {
		t := tr.sess[sess]
		id, t0 := t.beginTx()
		retries, err := inner(sess)
		t.endTx(id, t0)
		return retries, err
	}
}

func (tr *tracer) all() []span {
	var out []span
	for _, t := range tr.sess {
		out = append(out, t.spans...)
	}
	return out
}

// durationsUS groups span durations, in microseconds, by span name.
func durationsUS(spans []span) map[string][]float64 {
	by := make(map[string][]float64)
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], float64(s.End-s.Start)/1e3)
	}
	return by
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
