package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"apf/internal/stats"
	"apf/internal/telemetry"
	"apf/internal/wire"
)

// wirebenchDim is the model size for the broadcast measurements — the
// 1M-scalar regime the paper's larger workloads live in.
const wirebenchDim = 1_000_000

// wirebenchEntry is one client-count row of BENCH_wire.json. Bytes are per
// round per client (the stream a single subscriber sees); broadcast times
// are per round across all clients. EncodeNs is the one-off serialization
// cost and BroadcastNs adds the fan-out of that one frame to every
// client: encode-once broadcast keeps the pair close as clients grow.
type wirebenchEntry struct {
	Clients         int     `json:"clients"`
	WireBytesPerMsg int64   `json:"wire_bytes_per_msg"`
	WireBroadcastNs float64 `json:"wire_broadcast_ns_per_round"`
	WireEncodeNs    float64 `json:"wire_encode_ns_per_round"`
}

// sparsebenchEntry is one frozen-fraction row of the sparse codec arm:
// the bytes of a full-model dense global frame against the sparse
// (unfrozen-scalars-only) framing of the same round, lossless and
// quantized. Reductions are dense_bytes / codec_bytes.
type sparsebenchEntry struct {
	FrozenFrac      float64 `json:"frozen_frac"`
	Unfrozen        int     `json:"unfrozen_scalars"`
	DenseBytes      int64   `json:"dense_bytes_per_msg"`
	SparseBytes     int64   `json:"sparse_bytes_per_msg"`
	SparseQ16Bytes  int64   `json:"sparse_q16_bytes_per_msg"`
	SparseReduction float64 `json:"sparse_reduction"`
	Q16Reduction    float64 `json:"sparse_q16_reduction"`
	SparseEncodeNs  float64 `json:"sparse_encode_ns"`
	Q16EncodeNs     float64 `json:"sparse_q16_encode_ns"`
}

// codecbenchEntry times one dense global frame of the report's dimension
// through the codec against a plain copy of the same bytes in the same
// run: encode and decode are gated as multiples of that reference arm,
// never as absolute times.
type codecbenchEntry struct {
	FrameBytes      int64   `json:"frame_bytes"`
	EncodeNs        float64 `json:"wire_encode_ns_per_msg"`
	DecodeNs        float64 `json:"wire_decode_ns_per_msg"`
	CopyNs          float64 `json:"copy_ns_per_msg"`
	EncodeToCopy    float64 `json:"encode_to_copy"`
	DecodeToCopy    float64 `json:"decode_to_copy"`
	MaxEncodeToCopy float64 `json:"max_encode_to_copy"`
	MaxDecodeToCopy float64 `json:"max_decode_to_copy"`
}

// Codec gates: 1.25x the encode/copy and decode/copy ratios recorded at
// GOMAXPROCS 2 (Intel Xeon; the median of five runs, since single runs
// there spread about ±10% around it). All three arms are single-threaded.
const (
	maxEncodeToCopy = 1.25 * 5.24
	maxDecodeToCopy = 1.25 * 6.88
)

// wirebenchReport is the BENCH_wire.json document.
type wirebenchReport struct {
	Commit     string             `json:"commit"`   // VCS stamp: `make wirebench` passes -buildvcs=true
	Modified   bool               `json:"modified"` // uncommitted changes in the measured tree
	CPU        string             `json:"cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Date       string             `json:"date"`
	GoVersion  string             `json:"go_version"`
	Dim        int                `json:"dim"`
	Note       string             `json:"note"`
	CodecNote  string             `json:"codec_note"`
	Codec      codecbenchEntry    `json:"codec"`
	Broadcast  []wirebenchEntry   `json:"broadcast"`
	SparseNote string             `json:"sparse_note"`
	Sparse     []sparsebenchEntry `json:"sparse"`
}

// countingWriter swallows writes and counts bytes, standing in for a
// connected socket whose kernel buffer never fills.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// runWirebench measures the encode-once wire broadcast of a GlobalMsg and
// the sparse codec arm, and writes the report to path.
func runWirebench(path string) error {
	// Fail fast on an unwritable path before spending time measuring.
	probe, err := os.Create(path)
	if err != nil {
		return err
	}
	probe.Close()

	rng := stats.SplitRNG(1, 7)
	payload := make([]float64, wirebenchDim)
	for i := range payload {
		payload[i] = rng.NormFloat64()
	}
	msg := &wire.GlobalMsg{Round: 3, Payload: payload, Participants: 2}

	bi := telemetry.ReadBuildInfo()
	rep := wirebenchReport{
		Commit:     bi.Revision,
		Modified:   bi.Modified,
		CPU:        cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Date:       time.Now().UTC().Format(time.DateOnly),
		GoVersion:  runtime.Version(),
		Dim:        wirebenchDim,
		Note:       "bytes are per round per client (steady-state stream); ns are per round across all clients; wire_broadcast_ns_per_round (encode once + fan-out) must stay close to wire_encode_ns_per_round as clients grow",
	}

	if err := runCodecbench(&rep, msg); err != nil {
		return err
	}

	for _, clients := range []int{2, 8, 32} {
		fmt.Fprintf(os.Stderr, "wirebench: clients=%d\n", clients)
		e := wirebenchEntry{Clients: clients, WireBytesPerMsg: int64(len(wire.Encode(msg)))}
		sinks := make([]*countingWriter, clients)
		for i := range sinks {
			sinks[i] = &countingWriter{}
		}

		// Encode once, hand the same frame to every sink.
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				frame := wire.Encode(msg)
				for _, w := range sinks {
					if _, err := w.Write(frame); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		e.WireBroadcastNs = float64(r.NsPerOp())

		r = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = wire.Encode(msg)
			}
		})
		e.WireEncodeNs = float64(r.NsPerOp())
		rep.Broadcast = append(rep.Broadcast, e)
	}

	if err := runSparsebench(&rep); err != nil {
		return err
	}

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wirebench: wrote %s\n", path)
	return nil
}

// codecbenchReps is how many interleaved repetitions of the three codec
// arms run; each arm keeps its fastest, so a burst of load from another
// process on the machine skews no ratio.
const codecbenchReps = 5

// runCodecbench fills the report's codec row: encode and steady-state
// decode (one reused read buffer, as a connection reads) of msg's frame,
// and the copy reference arm, then applies the codec gates.
func runCodecbench(rep *wirebenchReport, msg wire.Msg) error {
	fmt.Fprintf(os.Stderr, "wirebench: codec\n")
	frame := wire.Encode(msg)
	var rb wire.ReadBuffer
	rd := bytes.NewReader(frame)
	dst := make([]byte, len(frame))
	arms := []func(){
		func() { _ = wire.Encode(msg) },
		func() {
			rd.Reset(frame)
			if _, err := rb.ReadMsg(rd, 0); err != nil {
				panic(err)
			}
		},
		func() { copy(dst, frame) },
	}
	best := make([]float64, len(arms))
	for k := 0; k < codecbenchReps; k++ {
		for i, arm := range arms {
			r := testing.Benchmark(func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					arm()
				}
			})
			if ns := float64(r.NsPerOp()); k == 0 || ns < best[i] {
				best[i] = ns
			}
		}
	}
	e := codecbenchEntry{
		FrameBytes:      int64(len(frame)),
		EncodeNs:        best[0],
		DecodeNs:        best[1],
		CopyNs:          best[2],
		EncodeToCopy:    best[0] / best[2],
		DecodeToCopy:    best[1] / best[2],
		MaxEncodeToCopy: maxEncodeToCopy,
		MaxDecodeToCopy: maxDecodeToCopy,
	}
	rep.Codec = e
	rep.CodecNote = fmt.Sprintf("codec times one dense global frame: encode into a fresh frame, decode through one reused read buffer, and a plain copy of the same bytes as the in-run reference arm; each arm is the fastest of %d interleaved repetitions; CI gate: encode_to_copy and decode_to_copy within their max_* (1.25x the recorded ratios)", codecbenchReps)
	if e.EncodeToCopy > e.MaxEncodeToCopy || e.DecodeToCopy > e.MaxDecodeToCopy {
		return fmt.Errorf("codec regression gate: encode/copy %.2f (max %.2f), decode/copy %.2f (max %.2f)",
			e.EncodeToCopy, e.MaxEncodeToCopy, e.DecodeToCopy, e.MaxDecodeToCopy)
	}
	return nil
}

// sparseGateFrac/sparseGateSlack define the CI regression gate: at the
// gate fraction the lossless sparse reduction must stay within 5% of the
// geometric ideal 1/(1-frozen) — any framing bloat (accidental indices,
// padding, metadata growth) trips it.
const (
	sparseGateFrac  = 0.95
	sparseGateSlack = 0.95
)

// runSparsebench fills the report's sparse arm: dense full-model global
// frames against sparse framing across frozen fractions, plus the CI gate.
func runSparsebench(rep *wirebenchReport) error {
	rng := stats.SplitRNG(2, 11)
	dense := make([]float64, wirebenchDim)
	for i := range dense {
		dense[i] = rng.NormFloat64()
	}
	denseFrame := wire.Encode(&wire.GlobalMsg{Round: 3, Payload: dense, Participants: 2})

	rep.SparseNote = fmt.Sprintf(
		"sparse rows compare a dense full-model global frame against positional sparse framing of the unfrozen scalars; reductions are dense/codec bytes; CI gate: sparse_reduction at frozen_frac %.2f must be >= %.2f of the ideal 1/(1-frac)",
		sparseGateFrac, sparseGateSlack)

	for _, frac := range []float64{0, 0.5, 0.9, 0.95, 0.99} {
		fmt.Fprintf(os.Stderr, "wirebench: sparse frozen_frac=%.2f\n", frac)
		unfrozen := wirebenchDim - int(frac*wirebenchDim)
		values := dense[:unfrozen]

		e := sparsebenchEntry{
			FrozenFrac: frac,
			Unfrozen:   unfrozen,
			DenseBytes: int64(len(denseFrame)),
		}
		mk := func(enc wire.Enc) *wire.SparseGlobalMsg {
			g := &wire.SparseGlobalMsg{
				Round: 3, Participants: 2,
				MaskHash: 0x9e3779b97f4a7c15, MaskGen: 4,
				Dim: wirebenchDim, Enc: enc,
			}
			g.Values, g.Q = wire.PackSparse(enc, values)
			return g
		}
		lossless, q16 := mk(wire.EncF64), mk(wire.EncF16)
		e.SparseBytes = int64(len(wire.Encode(lossless)))
		e.SparseQ16Bytes = int64(len(wire.Encode(q16)))
		e.SparseReduction = float64(e.DenseBytes) / float64(e.SparseBytes)
		e.Q16Reduction = float64(e.DenseBytes) / float64(e.SparseQ16Bytes)

		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := mk(wire.EncF64)
				_ = wire.Encode(g)
			}
		})
		e.SparseEncodeNs = float64(r.NsPerOp())
		r = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := mk(wire.EncF16)
				_ = wire.Encode(g)
			}
		})
		e.Q16EncodeNs = float64(r.NsPerOp())
		rep.Sparse = append(rep.Sparse, e)

		if frac == sparseGateFrac {
			ideal := 1 / (1 - frac)
			if e.SparseReduction < sparseGateSlack*ideal {
				return fmt.Errorf("sparse regression gate: reduction %.2fx at frozen_frac %.2f is below %.2f×%.2fx",
					e.SparseReduction, frac, sparseGateSlack, ideal)
			}
		}
	}
	return nil
}
