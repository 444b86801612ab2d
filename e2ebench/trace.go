package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/msg"
	"repro/internal/rules"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Req; Parent is the ID of the span that caused this one (0 = root).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps a traced run's spans and below-Drive accumulators in
// memory; write puts them out once the run is over.
type recorder struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu     sync.Mutex
	spans  []span
	layers []*engineLayers
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) id() uint64 { return r.nextID.Add(1) }

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// add records a span that ran from start until now.
func (r *recorder) add(name string, id, parent, req uint64, start time.Time) {
	r.span(name, id, parent, req, start, time.Now())
}

func (r *recorder) span(name string, id, parent, req uint64, start, end time.Time) {
	s := span{Name: name, ID: id, Parent: parent, Req: req, Start: r.at(start), End: r.at(end)}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) addLayers(l *engineLayers) {
	r.mu.Lock()
	r.layers = append(r.layers, l)
	r.mu.Unlock()
}

// byReq groups the recorded spans by operation.
func (r *recorder) byReq() map[uint64][]span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[uint64][]span)
	for _, s := range r.spans {
		out[s.Req] = append(out[s.Req], s)
	}
	return out
}

// write stores the host record, every span and every accumulator as JSON
// lines in dir/name.
func (r *recorder) write(dir, name string, h host) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	err = enc.Encode(map[string]any{"host": h})
	for i := 0; err == nil && i < len(r.spans); i++ {
		err = enc.Encode(map[string]any{"span": r.spans[i]})
	}
	for i := 0; err == nil && i < len(r.layers); i++ {
		err = enc.Encode(map[string]any{"engine_layers": r.layers[i]})
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// traceRef names an operation and the span that is the parent of the next
// one. It travels as the traceHeader between processes' worth of handlers
// and as a context value inside the gateway.
type traceRef struct{ req, parent uint64 }

const traceHeader = "X-Bench-Trace"

func (t traceRef) String() string { return fmt.Sprintf("%d/%d", t.req, t.parent) }

func parseRef(v string) (traceRef, bool) {
	a, b, ok := strings.Cut(v, "/")
	if !ok {
		return traceRef{}, false
	}
	req, err1 := strconv.ParseUint(a, 10, 64)
	parent, err2 := strconv.ParseUint(b, 10, 64)
	return traceRef{req, parent}, err1 == nil && err2 == nil
}

type traceKey struct{}

// traceHandler times next.ServeHTTP as a span for requests that carry a
// trace header and hands the span on to outbound calls as a context value.
// Requests without the header pass straight through.
func traceHandler(rec *recorder, name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref, ok := parseRef(r.Header.Get(traceHeader))
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		id, start := rec.id(), time.Now()
		ctx := context.WithValue(r.Context(), traceKey{}, traceRef{req: ref.req, parent: id})
		next.ServeHTTP(w, r.WithContext(ctx))
		rec.add(name, id, ref.parent, ref.req, start)
	})
}

// traceTransport, the gateway's outbound transport in a traced run, times
// an upstream request of a traced operation from RoundTrip to the end of
// its response body as gate.upstream, and adds the trace header to a clone
// of the request so the replica's handler can join the operation.
type traceTransport struct {
	rec  *recorder
	base http.RoundTripper
}

func (t traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := req.Context().Value(traceKey{}).(traceRef)
	if !ok {
		return t.base.RoundTrip(req)
	}
	id, start := t.rec.id(), time.Now()
	end := func() { t.rec.add("gate.upstream", id, ref.parent, ref.req, start) }
	out := req.Clone(req.Context())
	out.Header.Set(traceHeader, traceRef{req: ref.req, parent: id}.String())
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		end()
		return nil, err
	}
	resp.Body = &endBody{ReadCloser: resp.Body, end: end}
	return resp, nil
}

// endBody calls end once, at the body's EOF or at Close, whichever is first.
type endBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *endBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.end)
	}
	return n, err
}

func (b *endBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}

// engineLayers accumulates time and calls per boundary below Engine.Run for
// one traced engine run: about 7x10^5 hook calls per slope run are too many
// for one span each. The DES calls every hook on the goroutine that drives
// it, so the fields need no synchronisation.
type engineLayers struct {
	Req     uint64 `json:"req"`
	BuildNS int64  `json:"build_ns"` // scenario.Build
	RunNS   int64  `json:"run_ns"`   // Engine.Run
	BootNS  int64  `json:"boot_ns"`  // Backend.Boot
	DriveNS int64  `json:"drive_ns"` // Backend.Drive
	HookNS  int64  `json:"hook_ns"`  // BlockCode hooks, Env calls included
	SendNS  int64  `json:"send_ns"`  // Env.Send
	MoveNS  int64  `json:"move_ns"`  // Env.Move
	PlanNS  int64  `json:"plan_ns"`  // Env.ValidateMoveSet + Env.CutVertex

	Hooks   uint64 `json:"hooks"`
	Sends   uint64 `json:"sends"`
	Moves   uint64 `json:"moves"`
	MovesOK uint64 `json:"moves_ok"`
	Plans   uint64 `json:"plans"`
	Senses  uint64 `json:"senses"`

	Result core.Result `json:"result"`

	rec *recorder
	run uint64 // span ID of the Engine.Run call, parent of Boot and Drive
}

// options wraps the DES backend and every BlockCode of a run so that their
// time lands in l.
func (l *engineLayers) options() []core.Option {
	return []core.Option{core.WithBackend(l.backend), core.WithFaultWrap(l.wrap)}
}

func (l *engineLayers) backend(p core.BackendParams) (core.Backend, error) {
	b, err := core.DES(p)
	if err != nil {
		return nil, err
	}
	return tracedBackend{Backend: b, l: l}, nil
}

type tracedBackend struct {
	core.Backend
	l *engineLayers
}

func (b tracedBackend) Boot() error {
	start := time.Now()
	err := b.Backend.Boot()
	b.l.BootNS += b.l.end("sim.boot", start)
	return err
}

func (b tracedBackend) Drive(ctx context.Context) error {
	start := time.Now()
	err := b.Backend.Drive(ctx)
	b.l.DriveNS += b.l.end("sim.drive", start)
	return err
}

// end records a span under the Engine.Run span and returns its length.
func (l *engineLayers) end(name string, start time.Time) int64 {
	now := time.Now()
	l.rec.span(name, l.rec.id(), l.run, l.Req, start, now)
	return int64(now.Sub(start))
}

func (l *engineLayers) wrap(inner exec.CodeFactory) exec.CodeFactory {
	return func(id lattice.BlockID) exec.BlockCode {
		return &tracedCode{inner: inner(id), env: tracedEnv{l: l}}
	}
}

// tracedCode times the hooks of one block. Its Env wrapper is reused
// across hooks: the DES hands a block the same Env on every call.
type tracedCode struct {
	inner exec.BlockCode
	env   tracedEnv
}

func (c *tracedCode) bind(env exec.Env) exec.Env {
	c.env.Env = env
	return &c.env
}

func (c *tracedCode) done(start time.Time) {
	c.env.l.HookNS += int64(time.Since(start))
	c.env.l.Hooks++
}

func (c *tracedCode) OnStart(env exec.Env) {
	start := time.Now()
	c.inner.OnStart(c.bind(env))
	c.done(start)
}

func (c *tracedCode) OnMessage(env exec.Env, from lattice.BlockID, m msg.Message) {
	start := time.Now()
	c.inner.OnMessage(c.bind(env), from, m)
	c.done(start)
}

func (c *tracedCode) OnMoved(env exec.Env, from, to geom.Vec) {
	start := time.Now()
	c.inner.OnMoved(c.bind(env), from, to)
	c.done(start)
}

func (c *tracedCode) OnNeighborhoodChanged(env exec.Env) {
	start := time.Now()
	c.inner.OnNeighborhoodChanged(c.bind(env))
	c.done(start)
}

// tracedEnv times the Env calls that leave block code for the message and
// lattice layers, and counts sensor reads.
type tracedEnv struct {
	exec.Env
	l *engineLayers
}

func (e *tracedEnv) Send(to lattice.BlockID, m msg.Message) error {
	start := time.Now()
	err := e.Env.Send(to, m)
	e.l.SendNS += int64(time.Since(start))
	e.l.Sends++
	return err
}

func (e *tracedEnv) Move(app rules.Application) error {
	start := time.Now()
	err := e.Env.Move(app)
	e.l.MoveNS += int64(time.Since(start))
	e.l.Moves++
	if err == nil {
		e.l.MovesOK++
	}
	return err
}

func (e *tracedEnv) ValidateMoveSet(moves []lattice.PlannedMove) int {
	start := time.Now()
	n := e.Env.ValidateMoveSet(moves)
	e.l.PlanNS += int64(time.Since(start))
	e.l.Plans++
	return n
}

func (e *tracedEnv) CutVertex() bool {
	start := time.Now()
	cut := e.Env.CutVertex()
	e.l.PlanNS += int64(time.Since(start))
	e.l.Plans++
	return cut
}

func (e *tracedEnv) Sense(v geom.Vec) bool {
	e.l.Senses++
	return e.Env.Sense(v)
}
