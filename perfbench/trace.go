package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"apf/internal/core"
	"apf/internal/fl"
	"apf/internal/nn"
	"apf/internal/opt"
	"apf/internal/tensor"
)

// The traced run times the calls into each layer's public functions from
// outside: wrappers around the model's layers, the optimizer, the sync
// manager and the sockets record spans in memory, and the report derives
// each layer's self time from them after the run.

// spanName identifies what a span timed.
type spanName uint8

const (
	spRound spanName = iota // one client round: OnRound to OnRound
	spForward
	spBackward
	spStep
	spPostIterate
	spPrepareUpload
	spCompactUpload
	spExpandDownload
	spApplyDownload
	spSend // client socket Write
	spWait // client socket Read
	spServerSend
	spRelaySend
	spRelayWait
	spHold // the benchmark's own wait around a scripted rejoin
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.round", "nn.forward", "nn.backward", "opt.step",
	"core.post_iterate", "core.prepare_upload", "core.compact_upload",
	"core.expand_download", "core.apply_download",
	"transport.client_send", "transport.client_wait",
	"transport.server_send", "relay.upstream_send", "relay.upstream_wait",
	"bench.hold",
}

// span is one timed call. parent indexes the enclosing round span in the
// same trace (-1 none); times are nanoseconds since the tracer's epoch.
type span struct {
	name       spanName
	parent     int32
	round      int32
	start, end int64
}

// tracer holds one traced cluster's spans.
type tracer struct {
	epoch   time.Time
	clients []*clientTrace
	// shared collects the server- and relay-side socket spans, written
	// from several goroutines.
	shared sharedTrace
}

func newTracer(epoch time.Time) *tracer {
	t := &tracer{epoch: epoch}
	t.shared.epoch = epoch
	return t
}

// client returns client c's trace, creating it; nil on an untraced run,
// whose factory helpers then return the plain factories.
func (t *tracer) client(c int) *clientTrace {
	if t == nil {
		return nil
	}
	for len(t.clients) <= c {
		t.clients = append(t.clients, nil)
	}
	if t.clients[c] == nil {
		ct := &clientTrace{epoch: t.epoch}
		ct.spans = append(ct.spans, span{name: spRound, parent: -1})
		t.clients[c] = ct
	}
	return t.clients[c]
}

// clientTrace is one client's spans. Everything a client does — training,
// manager calls, socket I/O and OnRound — runs on its RunClient
// goroutine, so the trace needs no lock; it is read after the client
// returned.
type clientTrace struct {
	epoch time.Time
	spans []span
	// open indexes the round span in progress; round is its round.
	open  int32
	round int32
	// frozen[r] is the manager's FrozenRatio after applying round r;
	// upload[r] the scalars it uploaded in round r.
	frozen []float64
	upload []int
	// bytes counts socket bytes in both directions.
	bytes int64
}

// now and record are no-ops on an untraced client (nil trace).
func (ct *clientTrace) now() int64 {
	if ct == nil {
		return 0
	}
	return int64(time.Since(ct.epoch))
}

func (ct *clientTrace) record(name spanName, start int64) {
	if ct == nil {
		return
	}
	ct.spans = append(ct.spans, span{name: name, parent: ct.open, round: ct.round, start: start, end: ct.now()})
}

// roundDone closes the round span in progress as round r and opens the
// next one. Called from OnRound.
func (ct *clientTrace) roundDone(r int) {
	if ct == nil {
		return
	}
	now := ct.now()
	open := &ct.spans[ct.open]
	open.end, open.round = now, int32(r)
	ct.open, ct.round = int32(len(ct.spans)), int32(r+1)
	ct.spans = append(ct.spans, span{name: spRound, parent: -1, round: int32(r + 1), start: now})
}

func setAt[T any](s []T, i int, v T) []T {
	for len(s) <= i {
		var zero T
		s = append(s, zero)
	}
	s[i] = v
	return s
}

// model returns a model factory building layers, each wrapped in a
// timing layer when traced.
func (ct *clientTrace) model(layers func(*rand.Rand) []nn.Layer) fl.ModelFactory {
	return func(rng *rand.Rand) *nn.Network {
		ls := layers(rng)
		if ct != nil {
			for i, l := range ls {
				ls[i] = &tracedLayer{Layer: l, ct: ct}
			}
		}
		return nn.NewNetwork(ls...)
	}
}

func (ct *clientTrace) optimizer(f fl.OptimizerFactory) fl.OptimizerFactory {
	if ct == nil {
		return f
	}
	return func(p []*nn.Param) opt.Optimizer { return &tracedOptimizer{Optimizer: f(p), ct: ct} }
}

func (ct *clientTrace) apfManager(cfg core.Config) fl.ManagerFactory {
	return func(_, dim int) fl.SyncManager {
		c := cfg
		c.Dim = dim
		m := core.NewManager(c)
		if ct == nil {
			return m
		}
		return &tracedAPF{Manager: m, ct: ct}
	}
}

func (ct *clientTrace) syncManager(f func() fl.SyncManager) fl.ManagerFactory {
	return func(int, int) fl.SyncManager {
		if ct == nil {
			return f()
		}
		return &tracedSync{SyncManager: f(), ct: ct}
	}
}

type tracedLayer struct {
	nn.Layer
	ct *clientTrace
}

func (l *tracedLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	t := l.ct.now()
	y := l.Layer.Forward(x, train)
	l.ct.record(spForward, t)
	return y
}

func (l *tracedLayer) Backward(g *tensor.Tensor) *tensor.Tensor {
	t := l.ct.now()
	y := l.Layer.Backward(g)
	l.ct.record(spBackward, t)
	return y
}

type tracedOptimizer struct {
	opt.Optimizer
	ct *clientTrace
}

func (o *tracedOptimizer) Step() {
	t := o.ct.now()
	o.Optimizer.Step()
	o.ct.record(spStep, t)
}

// tracedAPF times an APF manager. Embedding the concrete manager keeps
// every interface the transport discovers by assertion (CompactCodec,
// MaskReporter, MaskGenerationReporter, CompactLen, and the catch-up
// surfaces), so the traced client behaves exactly like the plain one.
type tracedAPF struct {
	*core.Manager
	ct *clientTrace
}

func (m *tracedAPF) PostIterate(round int, x []float64) {
	t := m.ct.now()
	m.Manager.PostIterate(round, x)
	m.ct.record(spPostIterate, t)
}

func (m *tracedAPF) PrepareUpload(round int, x []float64) ([]float64, float64, int64) {
	t := m.ct.now()
	c, w, b := m.Manager.PrepareUpload(round, x)
	m.ct.record(spPrepareUpload, t)
	return c, w, b
}

func (m *tracedAPF) CompactUpload(round int, contrib []float64) []float64 {
	t := m.ct.now()
	out := m.Manager.CompactUpload(round, contrib)
	m.ct.record(spCompactUpload, t)
	m.ct.upload = setAt(m.ct.upload, round, len(out))
	return out
}

func (m *tracedAPF) ExpandDownload(round int, compact []float64) []float64 {
	t := m.ct.now()
	out := m.Manager.ExpandDownload(round, compact)
	m.ct.record(spExpandDownload, t)
	return out
}

func (m *tracedAPF) ApplyDownload(round int, x, global []float64) int64 {
	t := m.ct.now()
	b := m.Manager.ApplyDownload(round, x, global)
	m.ct.record(spApplyDownload, t)
	m.ct.frozen = setAt(m.ct.frozen, round, m.Manager.FrozenRatio())
	return b
}

// tracedSync times a manager with no compact codec (dense-1m's
// passthrough); every scalar is uploaded.
type tracedSync struct {
	fl.SyncManager
	ct *clientTrace
}

func (m *tracedSync) PostIterate(round int, x []float64) {
	t := m.ct.now()
	m.SyncManager.PostIterate(round, x)
	m.ct.record(spPostIterate, t)
}

func (m *tracedSync) PrepareUpload(round int, x []float64) ([]float64, float64, int64) {
	t := m.ct.now()
	c, w, b := m.SyncManager.PrepareUpload(round, x)
	m.ct.record(spPrepareUpload, t)
	m.ct.upload = setAt(m.ct.upload, round, len(c))
	return c, w, b
}

func (m *tracedSync) ApplyDownload(round int, x, global []float64) int64 {
	t := m.ct.now()
	b := m.SyncManager.ApplyDownload(round, x, global)
	m.ct.record(spApplyDownload, t)
	m.ct.frozen = setAt(m.ct.frozen, round, 0)
	return b
}

// dial wraps a client dialer so socket writes and reads are timed.
func (ct *clientTrace) dial(d func(network, addr string) (net.Conn, error)) func(network, addr string) (net.Conn, error) {
	if ct == nil {
		return d
	}
	return func(network, addr string) (net.Conn, error) {
		c, err := d(network, addr)
		if err != nil {
			return nil, err
		}
		return &tracedClientConn{Conn: c, ct: ct}, nil
	}
}

type tracedClientConn struct {
	net.Conn
	ct *clientTrace
}

func (c *tracedClientConn) Write(p []byte) (int, error) {
	t := c.ct.now()
	n, err := c.Conn.Write(p)
	c.ct.record(spSend, t)
	c.ct.bytes += int64(n)
	return n, err
}

func (c *tracedClientConn) Read(p []byte) (int, error) {
	t := c.ct.now()
	n, err := c.Conn.Read(p)
	c.ct.record(spWait, t)
	c.ct.bytes += int64(n)
	return n, err
}

// sharedTrace records socket spans of the server and relay, whose writer
// goroutines run concurrently.
type sharedTrace struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func (st *sharedTrace) record(name spanName, start time.Time) {
	end := time.Now()
	st.mu.Lock()
	st.spans = append(st.spans, span{name: name, parent: -1, round: -1,
		start: int64(start.Sub(st.epoch)), end: int64(end.Sub(st.epoch))})
	st.mu.Unlock()
}

// total returns the summed duration of the named spans.
func (st *sharedTrace) total(name spanName) time.Duration {
	var d int64
	for _, s := range st.spans {
		if s.name == name {
			d += s.end - s.start
		}
	}
	return time.Duration(d)
}

// listener wraps a server-side listener so every accepted connection's
// writes are timed; untraced it is returned as is.
func (t *tracer) listener(ln net.Listener) net.Listener {
	if t == nil {
		return ln
	}
	return &tracedListener{Listener: ln, st: &t.shared}
}

type tracedListener struct {
	net.Listener
	st *sharedTrace
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &sharedConn{Conn: c, st: l.st, send: spServerSend}, nil
}

// relayDial times the relay's upstream socket; nil when untraced (the
// relay then uses its default dialer).
func (t *tracer) relayDial() func(network, addr string) (net.Conn, error) {
	if t == nil {
		return nil
	}
	return func(network, addr string) (net.Conn, error) {
		c, err := dialTCP(network, addr)
		if err != nil {
			return nil, err
		}
		return &sharedConn{Conn: c, st: &t.shared, send: spRelaySend, wait: spRelayWait}, nil
	}
}

// sharedConn times a server- or relay-side socket's writes, and its reads
// when wait is set (a server's reads only idle until the next update).
type sharedConn struct {
	net.Conn
	st         *sharedTrace
	send, wait spanName
}

func (c *sharedConn) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := c.Conn.Write(p)
	c.st.record(c.send, t)
	return n, err
}

func (c *sharedConn) Read(p []byte) (int, error) {
	if c.wait == 0 {
		return c.Conn.Read(p)
	}
	t := time.Now()
	n, err := c.Conn.Read(p)
	c.st.record(c.wait, t)
	return n, err
}

// selfTimes returns, per span name, the summed self time (duration minus
// the children's durations) over the round spans of rounds ≥ 1 not in
// skip, and their children; rounds counts those round spans. Round 0
// includes set-up and is left out, as are the rounds in skip (a churn
// workload's idled gate rounds), as they are from the end-to-end round
// gaps.
func (ct *clientTrace) selfTimes(skip map[int]bool) (self [numSpanNames]time.Duration, rounds int) {
	children := make([]int64, len(ct.spans))
	counted := make([]bool, len(ct.spans))
	for i, s := range ct.spans {
		if s.name == spRound && s.end > 0 && s.round >= 1 && !skip[int(s.round)] {
			counted[i] = true
			rounds++
		}
	}
	for _, s := range ct.spans {
		if s.parent >= 0 && counted[s.parent] {
			children[s.parent] += s.end - s.start
			self[s.name] += time.Duration(s.end - s.start)
		}
	}
	for i, s := range ct.spans {
		if counted[i] {
			self[spRound] += time.Duration(s.end - s.start - children[i])
		}
	}
	return self, rounds
}

// writeSpans appends every span of the cluster to w as CSV rows:
// cluster, trace (client index, or "shared"), span id, parent id, round,
// name, start and end in nanoseconds since the cluster's start.
func (t *tracer) writeSpans(w *bufio.Writer, cluster int) {
	for c, ct := range t.clients {
		for i, s := range ct.spans {
			fmt.Fprintf(w, "%d,%d,%d,%d,%d,%s,%d,%d\n", cluster, c, i, s.parent, s.round, spanNames[s.name], s.start, s.end)
		}
	}
	for i, s := range t.shared.spans {
		fmt.Fprintf(w, "%d,shared,%d,%d,%d,%s,%d,%d\n", cluster, i, s.parent, s.round, spanNames[s.name], s.start, s.end)
	}
}

// writeSpanFile writes the spans of every traced cluster to path.
func writeSpanFile(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "cluster,trace,id,parent,round,name,start_ns,end_ns")
	for i, t := range tracers {
		t.writeSpans(w, i)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
