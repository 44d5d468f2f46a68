package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"apf/internal/fl"
	"apf/internal/nn"
	"apf/internal/stats"
	"apf/internal/telemetry"
	"apf/internal/transport"
	"apf/internal/wire"
)

// clusterTimeout bounds one cluster run; a healthy one takes seconds.
const clusterTimeout = 120 * time.Second

// clusterResult is what one cluster run measured.
type clusterResult struct {
	rounds int
	// setup runs from the cluster's start (data generation included) to
	// client 0's OnRound(0).
	setup time.Duration
	// gaps are client 0's OnRound-to-OnRound intervals, less the harness's
	// own waits: on a churn workload client 0's holds are cut out, and the
	// gap of each round client 1 idles through is dropped. timed is their
	// sum, from round 0 applied to the last round (0 if client 0 never
	// applied the last round).
	gaps  []time.Duration
	timed time.Duration
	// idled holds the gate round of each absence: client 1 sits it out on
	// purpose, so the server commits it only at its deadline.
	idled map[int]bool
	// cpu is the process's user+sys CPU time from round 0 applied to the
	// last round, catch-up work included.
	cpu time.Duration
	// wireBytes sums WireRead+WireWritten over the clients (-1 when a
	// client failed and took its counts with it).
	wireBytes int64
	// heapLive is the live heap after a forced GC, cluster still referenced.
	heapLive uint64
	// attempted and failed count (client, round) pairs.
	attempted, failed int
	checksum          uint64
	// correct reports the bit-identity checks; why says what failed.
	correct bool
	why     string
	// rootErr is the server's (or root's) error, "" when it completed.
	rootErr string
	// finalAcc and tta are NaN where the workload defines no accuracy.
	finalAcc, tta float64
	// churn marks a cluster with scripted absences; catchups are its rejoins.
	churn    bool
	catchups []catchup
	// mem holds runtime deltas over the timed phase.
	mem memDelta
	// Traced runs only.
	tr                           *tracer
	srvReg, relayReg, clientsReg *telemetry.Registry
}

// catchup is one rejoin of client 1: the time from its successful redial
// until it applied the server's current round, the bytes its connection
// carried meanwhile, and the mode the frames it read show.
type catchup struct {
	mode  string
	dur   time.Duration
	bytes int64
}

type memDelta struct {
	allocBytes, gcCycles uint64
	gcPause              time.Duration
}

// modelCopy is one strided copy of client 0's model for tta_s.
type modelCopy struct {
	at time.Duration // timed-phase time when client 0 applied it
	x  []float64
}

// runCluster runs one cluster of the workload to completion and checks
// its outputs. An error means the harness itself failed; a failed check
// is reported in the result.
func runCluster(w *workload, seed int64, rounds int, traced bool, workDir string) (*clusterResult, error) {
	start := time.Now()
	var tr *tracer
	if traced {
		tr = newTracer(start)
	}
	dir, err := os.MkdirTemp(workDir, "cluster-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	spec, err := w.build(seed, rounds, &buildEnv{tr: tr, dir: dir})
	if err != nil {
		return nil, err
	}
	res := &clusterResult{rounds: spec.rounds, tr: tr, finalAcc: math.NaN(), tta: math.NaN(), idled: map[int]bool{}}
	for _, a := range spec.absences {
		res.idled[a.gate] = true
	}
	if traced {
		res.srvReg, res.clientsReg = telemetry.New(), telemetry.New()
		if spec.relay != nil {
			res.relayReg = telemetry.New()
		}
	}

	// On an early error return the deferred cancel runs first, then the
	// wait for whatever was started.
	var wg sync.WaitGroup
	defer wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), clusterTimeout)
	defer cancel()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	scfg := spec.server
	scfg.Listener = tr.listener(ln)
	scfg.Metrics = res.srvReg
	srv, err := transport.NewServer(scfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	var global []float64
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		global, srvErr = srv.Run(ctx)
		if srvErr != nil {
			cancel()
		}
	}()

	addr := srv.Addr().String()
	var relay *transport.Relay
	var relayErr error
	if spec.relay != nil {
		rln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		rcfg := *spec.relay
		rcfg.Listener = tr.listener(rln)
		rcfg.Upstream = addr
		rcfg.Dial = tr.relayDial()
		rcfg.Metrics = res.relayReg
		relay, err = transport.NewRelay(rcfg)
		if err != nil {
			rln.Close()
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, relayErr = relay.Run(ctx); relayErr != nil {
				cancel()
			}
		}()
		addr = relay.Addr().String()
	}

	n := len(spec.clients)
	results := make([]*transport.ClientResult, n)
	errs := make([]error, n)
	applied := make([]int, n) // last round each client applied
	for c := range applied {
		applied[c] = -1
	}

	// Client 0 never severs: its OnRound timestamps are the round clock.
	var (
		last   time.Time
		timed  time.Duration // sum of res.gaps so far
		ru0    time.Duration
		mem0   memSample
		copies []modelCopy
		churn  = newChurnScript(ctx, spec.absences, srv)
		traces = make([]*clientTrace, n)
	)
	for c := range traces {
		traces[c] = tr.client(c)
	}
	for c := 0; c < n; c++ {
		cfg := spec.clients[c]
		cfg.Addr = addr
		cfg.Metrics = res.clientsReg
		dial := dialTCP
		if c == 1 && churn != nil {
			dial = churn.dial
		}
		cfg.Dial = traces[c].dial(dial)
		user := cfg.OnRound
		c := c
		cfg.OnRound = func(r int, x []float64) {
			if user != nil {
				user(r, x)
			}
			applied[c] = r
			traces[c].roundDone(r)
			if c == 1 {
				churn.applied(r)
				return
			}
			now := time.Now()
			if r == 0 {
				res.setup = now.Sub(start)
				ru0 = cpuTime()
				mem0 = readMem()
			} else if !res.idled[r] {
				res.gaps = append(res.gaps, now.Sub(last))
				timed += now.Sub(last)
			}
			last = now
			if r == spec.rounds-1 {
				res.timed = timed
				res.cpu = cpuTime() - ru0
				res.mem = readMem().sub(mem0)
			}
			if spec.eval != nil && (r+1)%spec.eval.stride == 0 {
				copies = append(copies, modelCopy{at: timed, x: append([]float64(nil), x...)})
			}
			// Client 0's hold is the harness's wait, not round time.
			last = last.Add(churn.hold(r, traces[0]))
		}
		wg.Add(1)
		go func(c int, cfg transport.ClientConfig) {
			defer wg.Done()
			results[c], errs[c] = transport.RunClient(ctx, cfg)
			if errs[c] != nil {
				cancel()
			}
		}(c, cfg)
		// Stagger the joins so server-assigned ids follow the shard order
		// (the simulator's client i trains shard i).
		if c == 0 {
			waitJoined(ctx, srv, relay)
		}
	}
	wg.Wait()

	if srvErr != nil && !errors.Is(srvErr, context.Canceled) {
		res.rootErr = srvErr.Error()
	}
	for c := 0; c < n; c++ {
		res.attempted += spec.rounds
		res.failed += spec.rounds - 1 - applied[c]
		if results[c] == nil {
			res.wireBytes = -1 // unknown: the client failed
		} else if res.wireBytes >= 0 {
			res.wireBytes += results[c].WireRead + results[c].WireWritten
		}
	}
	if churn != nil {
		res.churn, res.catchups = true, churn.catchups
	}
	res.correct, res.why = check(spec, global, results, errs, srvErr, relayErr)
	if res.correct {
		res.checksum = checksum(results[0].FinalModel)
	}
	if spec.eval != nil && res.failed == 0 && res.correct {
		res.finalAcc, res.tta = evaluate(spec.eval, results[0].FinalModel, copies)
	}

	// Live heap with the cluster's state still referenced.
	runtime.GC()
	runtime.GC()
	res.heapLive = heapLive()
	runtime.KeepAlive(srv)
	runtime.KeepAlive(relay)
	runtime.KeepAlive(results)
	return res, nil
}

// dialTCP is the clients' dialer.
func dialTCP(network, addr string) (net.Conn, error) {
	return net.DialTimeout(network, addr, 10*time.Second)
}

// waitJoined blocks until the first client has registered.
func waitJoined(ctx context.Context, srv *transport.Server, relay *transport.Relay) {
	if relay != nil {
		// The relay builds its downward server only after the root's
		// welcome; a fixed stagger keeps the join order there.
		select {
		case <-ctx.Done():
		case <-time.After(50 * time.Millisecond):
		}
		return
	}
	for srv.Sessions() < 1 && ctx.Err() == nil {
		time.Sleep(200 * time.Microsecond)
	}
}

// check verifies a cluster's outputs: every party finished, both clients
// hold the bit-identical final model, and a dense server's returned
// global equals it.
func check(spec *clusterSpec, global []float64, results []*transport.ClientResult, errs []error, srvErr, relayErr error) (bool, string) {
	// A failing party cancels the others, so the first error that is not
	// a cancellation names the cause.
	var first string
	for i, err := range append([]error{srvErr, relayErr}, errs...) {
		if err == nil {
			continue
		}
		who := fmt.Sprintf("client %d", i-2)
		if i < 2 {
			who = [...]string{"server", "relay"}[i]
		}
		if !errors.Is(err, context.Canceled) {
			return false, fmt.Sprintf("%s: %v", who, err)
		}
		if first == "" {
			first = fmt.Sprintf("%s: %v", who, err)
		}
	}
	if first != "" {
		return false, first
	}
	ref := results[0].FinalModel
	for c := 1; c < len(results); c++ {
		if j := firstDiff(results[c].FinalModel, ref); j >= 0 {
			return false, fmt.Sprintf("client %d final model differs from client 0 at scalar %d", c, j)
		}
	}
	if spec.denseGlobal {
		if j := firstDiff(global, ref); j >= 0 {
			return false, fmt.Sprintf("server global differs from the clients' final model at scalar %d", j)
		}
	}
	return true, ""
}

// firstDiff returns the first index where a and b differ bit for bit
// (-1 when identical; a length mismatch counts at the shorter length).
func firstDiff(a, b []float64) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return j
		}
	}
	return -1
}

// checksum is the FNV-1a hash of the model's float64 bit patterns.
func checksum(x []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// evaluate scores the final model and the strided copies on the held-out
// set: final accuracy, and the timed-phase seconds until client 0 applied
// the first copy reaching the target (NaN if none did).
func evaluate(ev *evalSpec, final []float64, copies []modelCopy) (acc, tta float64) {
	net := ev.model(stats.SplitRNG(0, 0))
	score := func(x []float64) float64 {
		nn.SetFlat(net.Params(), x)
		_, a := fl.EvaluateModel(net, ev.test, 256)
		return a
	}
	tta = math.NaN()
	for _, c := range copies {
		if score(c.x) >= ev.target {
			tta = c.at.Seconds()
			break
		}
	}
	return score(final), tta
}

// cpuTime returns the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type memSample struct {
	alloc, cycles uint64
	pause         time.Duration
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{alloc: ms.TotalAlloc, cycles: uint64(ms.NumGC), pause: time.Duration(ms.PauseTotalNs)}
}

func (m memSample) sub(o memSample) memDelta {
	return memDelta{allocBytes: m.alloc - o.alloc, gcCycles: m.cycles - o.cycles, gcPause: m.pause - o.pause}
}

func heapLive() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// churnScript drives client 1's scripted absences. Client 1 severs its
// connection right after applying round a.after; its redial blocks until
// the server has committed a.gate rounds. Client 0 waits after applying
// round a.gate-1 until client 1 has caught up to that round; client 1
// then waits until round a.gate committed without it (its own update for
// that round arrives stale), and client 0 waits after applying round
// a.gate until client 1 has applied it too. So the server commits
// exactly the rounds a.after+1 .. a.gate without client 1, and both
// clients start round a.gate+1 together: which updates a round
// aggregates never depends on timing.
//
// dial and applied run on client 1's goroutine (its DialFunc and
// OnRound), hold on client 0's; the two sides share only the channels
// and the server.
type churnScript struct {
	ctx      context.Context
	absences []absence
	srv      *transport.Server
	// rejoined[k] closes when client 1 caught up after absence k,
	// synced[k] when it applied that absence's gate round.
	rejoined, synced []chan struct{}

	// Client 1's side.
	conn     *rejoinConn // its live connection
	next     int         // index of the absence in progress or next
	severed  bool
	dialedAt time.Time
	catchups []catchup
}

func newChurnScript(ctx context.Context, absences []absence, srv *transport.Server) *churnScript {
	if len(absences) == 0 {
		return nil
	}
	s := &churnScript{ctx: ctx, absences: absences, srv: srv}
	for range absences {
		s.rejoined = append(s.rejoined, make(chan struct{}))
		s.synced = append(s.synced, make(chan struct{}))
	}
	return s
}

// waitCommitted polls until the server has committed n rounds.
func (s *churnScript) waitCommitted(n int) error {
	for s.srv.CommittedRounds() < n {
		if err := s.ctx.Err(); err != nil {
			return err
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// dial is client 1's DialFunc.
func (s *churnScript) dial(network, addr string) (net.Conn, error) {
	if s.severed {
		if err := s.waitCommitted(s.absences[s.next].gate); err != nil {
			return nil, err
		}
	}
	c, err := dialTCP(network, addr)
	if err != nil {
		return nil, err
	}
	s.conn = &rejoinConn{Conn: c, scanning: s.severed}
	s.dialedAt = time.Now()
	return s.conn, nil
}

// applied runs in client 1's OnRound.
func (s *churnScript) applied(r int) {
	if s == nil {
		return
	}
	for k, a := range s.absences {
		if r == a.gate {
			close(s.synced[k])
		}
	}
	if s.next >= len(s.absences) {
		return
	}
	a := s.absences[s.next]
	switch {
	case !s.severed && r == a.after:
		s.severed = true
		s.conn.Close()
	case s.severed && r == a.gate-1:
		s.catchups = append(s.catchups, catchup{
			mode:  s.conn.mode(),
			dur:   time.Since(s.dialedAt),
			bytes: s.conn.bytes,
		})
		s.conn.scanning = false
		s.severed = false
		close(s.rejoined[s.next])
		s.next++
		_ = s.waitCommitted(a.gate + 1) // a cancelled run ends on its own
	}
}

// hold runs in client 0's OnRound: after round gate-1 of an absence it
// waits for client 1's rejoin, after round gate for client 1 to apply it.
// It returns the time it waited, which ct records as a hold span.
func (s *churnScript) hold(r int, ct *clientTrace) time.Duration {
	if s == nil {
		return 0
	}
	var held time.Duration
	for k, a := range s.absences {
		var wait chan struct{}
		switch r {
		case a.gate - 1:
			wait = s.rejoined[k]
		case a.gate:
			wait = s.synced[k]
		default:
			continue
		}
		start, t := time.Now(), ct.now()
		select {
		case <-wait:
		case <-s.ctx.Done():
		}
		ct.record(spHold, t)
		held += time.Since(start)
	}
	return held
}

// rejoinConn is client 1's connection: it counts bytes for catchup_kb and,
// on a rejoin, reads the frame kinds off the inbound stream to tell a
// sketch rejoin from a snapshot one (a replay shows neither). Only client
// 1's goroutine uses it.
type rejoinConn struct {
	net.Conn
	bytes    int64
	scanning bool
	scan     frameScanner
}

func (c *rejoinConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes += int64(n)
	if c.scanning {
		c.scan.feed(p[:n])
	}
	return n, err
}

func (c *rejoinConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes += int64(n)
	return n, err
}

func (c *rejoinConn) mode() string {
	switch {
	case c.scan.seen[wire.KindSnapshot]:
		return "snapshot"
	case c.scan.seen[wire.KindDelta]:
		return "sketch"
	default:
		return "replay"
	}
}

// frameScanner follows wire frame boundaries in a byte stream and notes
// the kinds it saw (header: magic 4, version 1, kind 1, length 4; then
// the payload and a 4-byte CRC).
type frameScanner struct {
	hdr  [10]byte
	have int
	skip int
	seen [256]bool
}

func (f *frameScanner) feed(p []byte) {
	for len(p) > 0 {
		if f.skip > 0 {
			k := min(f.skip, len(p))
			f.skip -= k
			p = p[k:]
			continue
		}
		k := copy(f.hdr[f.have:], p)
		f.have += k
		p = p[k:]
		if f.have == len(f.hdr) {
			f.seen[f.hdr[5]] = true
			f.skip = int(binary.LittleEndian.Uint32(f.hdr[6:10])) + 4
			f.have = 0
		}
	}
}
