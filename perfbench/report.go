package main

import (
	"math"
	"sort"
	"strings"
	"time"

	"apf/internal/telemetry"
)

// e2eMetrics are the end-to-end metrics in report order. contract marks
// the ones BENCHMARK.json lists: defined and non-zero on every contract
// workload. The rest exist only on some workloads and are n/a elsewhere.
var e2eMetrics = []struct {
	name, unit string
	contract   bool
}{
	{"setup_s", "s", true},
	{"rounds_per_s", "1/s", true},
	{"round_ms_p50", "ms", true},
	{"round_ms_p95", "ms", true},
	{"cpu_ms_per_round", "ms", true},
	{"wire_kb_per_round", "KiB", true},
	{"heap_live_mb", "MiB", true},
	{"failed_frac", "ratio", false},
	{"final_acc", "ratio", false},
	{"tta_s", "s", false},
	{"catchup_ms_p50", "ms", false},
	{"catchup_kb_mean", "KiB", false},
}

// phase is the clusters of one measuring phase (traced or untraced).
type phase []*clusterResult

// gaps pools client 0's round gaps, in ms.
func (p phase) gaps() []float64 {
	var out []float64
	for _, c := range p {
		for _, g := range c.gaps {
			out = append(out, ms(g))
		}
	}
	return out
}

// e2e computes every end-to-end metric over the phase.
func (p phase) e2e() map[string]float64 {
	nan := math.NaN()
	m := map[string]float64{}
	for _, e := range e2eMetrics {
		m[e.name] = nan
	}
	var setups, heaps, accs, ttas, cms, rates, cpus []float64
	var wire, cbytes int64
	var rounds, attempted, failed int
	for _, c := range p {
		setups = append(setups, c.setup.Seconds())
		heaps = append(heaps, float64(c.heapLive)/(1<<20))
		accs = append(accs, c.finalAcc)
		ttas = append(ttas, c.tta)
		if wire >= 0 && c.wireBytes >= 0 {
			wire += c.wireBytes
		} else {
			wire = -1
		}
		rounds += c.rounds
		attempted += c.attempted
		failed += c.failed
		if c.timed > 0 {
			rates = append(rates, float64(len(c.gaps))/c.timed.Seconds())
			cpus = append(cpus, ms(c.cpu)/float64(c.rounds-1))
		}
		for _, cu := range c.catchups {
			cms = append(cms, ms(cu.dur))
			cbytes += cu.bytes
		}
	}
	m["setup_s"] = median(setups)
	m["heap_live_mb"] = median(heaps)
	if wire >= 0 {
		m["wire_kb_per_round"] = float64(wire) / float64(rounds) / 1024
	}
	m["failed_frac"] = float64(failed) / float64(attempted)
	m["final_acc"] = median(accs)
	m["tta_s"] = median(ttas)
	if len(cms) > 0 {
		m["catchup_ms_p50"] = median(cms)
		m["catchup_kb_mean"] = float64(cbytes) / float64(len(cms)) / 1024
	}
	// Rates are medians over clusters, so one cluster slowed by a burst of
	// contention on the host does not move them.
	if len(rates) > 0 {
		m["rounds_per_s"] = median(rates)
		m["cpu_ms_per_round"] = median(cpus)
		g := p.gaps()
		m["round_ms_p50"] = median(g)
		m["round_ms_p95"] = percentile(g, 0.95)
	}
	return m
}

// tailBeyondP95 is how many round gaps lie beyond the p95 sample.
func tailBeyondP95(n int) int { return n - int(math.Ceil(0.95*float64(n))) }

// modeCounts tallies the phase's rejoins by catch-up mode.
func (p phase) modeCounts() map[string]int {
	out := map[string]int{"replay": 0, "sketch": 0, "snapshot": 0}
	for _, c := range p {
		for _, cu := range c.catchups {
			out[cu.mode]++
		}
	}
	return out
}

// perLayerMetrics are the traced run's metrics in report order, with
// their units. contract marks the ones BENCHMARK.json lists; the relay
// tier's run only on lenet-apf-relay, which is not a contract workload,
// and are n/a elsewhere.
var perLayerMetrics = []struct {
	name, unit string
	contract   bool
}{
	{"nn.forward_ms", "ms", true},
	{"nn.backward_ms", "ms", true},
	{"opt.step_ms", "ms", true},
	{"core.post_iterate_ms", "ms", true},
	{"core.prepare_upload_ms", "ms", true},
	{"core.compact_upload_ms", "ms", true},
	{"core.expand_download_ms", "ms", true},
	{"core.apply_download_ms", "ms", true},
	{"core.frozen_frac", "ratio", true}, // median over the second half of each cluster
	{"core.upload_scalars", "count", true},
	{"transport.client_send_ms", "ms", true},
	{"transport.client_wait_ms", "ms", true},
	{"transport.client_bytes", "KiB", true},
	{"transport.client_other_ms", "ms", true},
	{"transport.server_send_ms", "ms", true},
	{"transport.round_ms", "ms", true},
	{"transport.collect_ms", "ms", true},
	{"transport.commit_ms", "ms", true},
	{"fl.reduce_ms", "ms", true},
	{"checkpoint.wal_append_ms", "ms", true},
	{"checkpoint.wal_appends", "count", true},
	{"checkpoint.wal_mb", "MiB", true},
	{"checkpoint.snapshot_ms", "ms", true},
	{"checkpoint.snapshots", "count", true},
	{"transport.catchup_ms", "ms", true},
	{"transport.catchup_bytes", "KiB", true},
	{"transport.resume_replay", "count", true},
	{"transport.resume_sketch", "count", true},
	{"transport.resume_snapshot", "count", true},
	{"transport.history_evicted", "count", true},
	{"relay.upstream_ms", "ms", false},
	{"relay.partials", "count", false},
	{"relay.upstream_reconnects", "count", false},
	{"wire.frames", "count", true},
	{"wire.mb", "MiB", true},
	{"wire.errors", "count", true},
	{"transport.updates_accepted", "count", true},
	{"transport.updates_rejected", "count", true},
	{"transport.updates_stale", "count", true},
	{"transport.writer_detaches", "count", true},
	{"transport.client_reconnects", "count", true},
	{"process.alloc_mb_per_round", "MiB", true},
	{"process.gc_cycles_per_round", "count", true},
	{"process.gc_pause_ms", "ms", true},
	{"trace.client_round_ms", "ms", true},
	{"trace.unattributed_frac", "ratio", true},
	{"trace.overhead_ms", "ms", true},
	{"trace.overhead_frac", "ratio", true},
}

// perLayer computes the traced phase's per-layer metrics. Client-side
// timings come from client 0's spans (it never severs) per round it
// timed; server-side ones from the registries, per committed round or
// as counts over the phase. The untraced phase gives the tracing
// overhead.
func perLayer(traced, untraced phase) map[string]float64 {
	m := map[string]float64{}
	var self [numSpanNames]time.Duration
	var clientRounds, committed, timedRounds int
	var clientBytes int64
	var frozen, upload []float64
	var serverSend time.Duration
	var mem memDelta
	snaps := map[string]map[string]float64{}
	add := func(which string, reg *telemetry.Registry) {
		if reg == nil {
			return
		}
		s := snaps[which]
		if s == nil {
			s = map[string]float64{}
			snaps[which] = s
		}
		for k, v := range reg.Snapshot() {
			s[k] += v
		}
	}
	for _, c := range traced {
		ct := c.tr.clients[0]
		st, n := ct.selfTimes(c.idled)
		for i := range st {
			self[i] += st[i]
		}
		clientRounds += n
		committed += c.rounds
		clientBytes += ct.bytes
		for r := c.rounds / 2; r < len(ct.frozen); r++ {
			frozen = append(frozen, ct.frozen[r])
		}
		for r := 1; r < len(ct.upload); r++ {
			upload = append(upload, float64(ct.upload[r]))
		}
		serverSend += c.tr.shared.total(spServerSend)
		if c.timed > 0 {
			timedRounds += c.rounds - 1
			mem.allocBytes += c.mem.allocBytes
			mem.gcCycles += c.mem.gcCycles
			mem.gcPause += c.mem.gcPause
		}
		add("server", c.srvReg)
		add("relay", c.relayReg)
		add("clients", c.clientsReg)
	}
	perRound := func(d time.Duration, n int) float64 {
		if n == 0 {
			return math.NaN()
		}
		return ms(d) / float64(n)
	}
	m["nn.forward_ms"] = perRound(self[spForward], clientRounds)
	m["nn.backward_ms"] = perRound(self[spBackward], clientRounds)
	m["opt.step_ms"] = perRound(self[spStep], clientRounds)
	m["core.post_iterate_ms"] = perRound(self[spPostIterate], clientRounds)
	m["core.prepare_upload_ms"] = perRound(self[spPrepareUpload], clientRounds)
	m["core.compact_upload_ms"] = perRound(self[spCompactUpload], clientRounds)
	m["core.expand_download_ms"] = perRound(self[spExpandDownload], clientRounds)
	m["core.apply_download_ms"] = perRound(self[spApplyDownload], clientRounds)
	m["core.frozen_frac"] = median(frozen)
	m["core.upload_scalars"] = mean(upload)
	m["transport.client_send_ms"] = perRound(self[spSend], clientRounds)
	m["transport.client_wait_ms"] = perRound(self[spWait], clientRounds)
	m["transport.client_bytes"] = float64(clientBytes) / 1024 / float64(committed)
	m["transport.client_other_ms"] = perRound(self[spRound], clientRounds)
	// Client 0's holds are the harness's waits; like the end-to-end round
	// gaps, the client round leaves them out.
	var total time.Duration
	for i, d := range self {
		if spanName(i) != spHold {
			total += d
		}
	}
	m["trace.client_round_ms"] = perRound(total, clientRounds)
	m["trace.unattributed_frac"] = float64(self[spRound]) / float64(total)
	m["transport.server_send_ms"] = perRound(serverSend, committed)

	srv, relay, clients := snaps["server"], snaps["relay"], snaps["clients"]
	// histMean is a histogram's mean observation (0 when empty).
	histMean := func(s map[string]float64, name, labels string) float64 {
		n := series(s, name, labels)
		if n == 0 {
			return 0
		}
		return series(s, name+"_sum", labels) / n
	}
	perCommit := func(v float64) float64 { return v / float64(committed) }
	m["transport.round_ms"] = 1000 * histMean(srv, "apf_round_seconds", "")
	m["transport.collect_ms"] = 1000 * histMean(srv, "apf_round_phase_seconds", `phase="collect"`)
	m["transport.commit_ms"] = 1000 * histMean(srv, "apf_round_phase_seconds", `phase="commit"`)
	m["fl.reduce_ms"] = 1000 * histMean(srv, "apf_round_phase_seconds", `phase="reduce"`)
	m["checkpoint.wal_append_ms"] = perCommit(1000 * series(srv, "apf_wal_append_seconds_sum", ""))
	m["checkpoint.wal_appends"] = series(srv, "apf_wal_appends_total", "")
	m["checkpoint.wal_mb"] = perCommit(series(srv, "apf_wal_bytes_total", "") / (1 << 20))
	m["checkpoint.snapshot_ms"] = perCommit(1000 * series(srv, "apf_snapshot_seconds_sum", ""))
	m["checkpoint.snapshots"] = series(srv, "apf_snapshots_total", "")
	m["transport.catchup_ms"] = 1000 * histMean(srv, "apf_catchup_seconds", "")
	m["transport.catchup_bytes"] = histMean(srv, "apf_catchup_bytes", "") / 1024
	m["transport.resume_replay"] = series(srv, "apf_resume_mode_total", `mode="replay"`)
	m["transport.resume_sketch"] = series(srv, "apf_resume_mode_total", `mode="sketch"`)
	m["transport.resume_snapshot"] = series(srv, "apf_resume_mode_total", `mode="snapshot"`)
	m["transport.history_evicted"] = series(srv, "apf_history_evicted_rounds_total", "")
	if relay != nil {
		m["relay.upstream_ms"] = perCommit(1000 * series(relay, "apf_relay_upstream_seconds_sum", ""))
		m["relay.partials"] = series(relay, "apf_relay_partials_total", "")
		m["relay.upstream_reconnects"] = series(relay, "apf_relay_upstream_reconnects_total", "")
	} else {
		m["relay.upstream_ms"] = math.NaN()
		m["relay.partials"] = math.NaN()
		m["relay.upstream_reconnects"] = math.NaN()
	}
	m["wire.frames"] = perCommit(series(srv, "apf_wire_frames_total", ""))
	m["wire.mb"] = perCommit(series(srv, "apf_wire_bytes_total", "") / (1 << 20))
	m["wire.errors"] = series(srv, "apf_wire_errors_total", "")
	m["transport.updates_accepted"] = series(srv, "apf_updates_total", `result="accepted"`)
	m["transport.updates_rejected"] = series(srv, "apf_updates_total", `result="rejected"`)
	m["transport.updates_stale"] = series(srv, "apf_updates_total", `result="stale"`)
	m["transport.writer_detaches"] = series(srv, "apf_writer_detaches_total", "")
	m["transport.client_reconnects"] = series(clients, "apf_client_reconnects_total", "")
	if timedRounds > 0 {
		m["process.alloc_mb_per_round"] = float64(mem.allocBytes) / (1 << 20) / float64(timedRounds)
		m["process.gc_cycles_per_round"] = float64(mem.gcCycles) / float64(timedRounds)
		m["process.gc_pause_ms"] = ms(mem.gcPause) / float64(timedRounds)
	} else {
		m["process.alloc_mb_per_round"] = math.NaN()
		m["process.gc_cycles_per_round"] = math.NaN()
		m["process.gc_pause_ms"] = math.NaN()
	}
	te, ue := traced.e2e(), untraced.e2e()
	m["trace.overhead_ms"] = te["round_ms_p50"] - ue["round_ms_p50"]
	m["trace.overhead_frac"] = ue["rounds_per_s"]/te["rounds_per_s"] - 1
	return m
}

// series sums a registry snapshot's samples of one metric name: every
// label set when labels is empty, else the series whose labels contain
// it.
func series(s map[string]float64, name, labels string) float64 {
	var sum float64
	for k, v := range s {
		base, lbl, _ := strings.Cut(strings.TrimSuffix(k, "}"), "{")
		if base == name && strings.Contains(lbl, labels) {
			sum += v
		}
	}
	return sum
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile returns the nearest-rank q-quantile (NaN for no samples, or
// when any sample is NaN).
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	for _, x := range s {
		if math.IsNaN(x) {
			return math.NaN()
		}
	}
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
