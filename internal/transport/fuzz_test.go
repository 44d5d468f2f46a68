package transport

import (
	"bytes"
	"math"
	"testing"

	"apf/internal/checkpoint"
	"apf/internal/core"
	"apf/internal/wire"
)

// encodeAll frames a sequence of messages into one wire stream, as a peer
// would produce on the socket.
func encodeAll(msgs ...wire.Msg) []byte {
	var buf []byte
	for _, m := range msgs {
		buf = wire.Append(buf, m)
	}
	return buf
}

// FuzzServerDecode drives the server's inbound decode path — a JoinMsg
// followed by UpdateMsgs — with arbitrary bytes, then pushes every decoded
// update through the same validation the round loop applies. Nothing here
// may panic, however malformed the stream.
func FuzzServerDecode(f *testing.F) {
	f.Add(encodeAll(
		&JoinMsg{Name: "shard-0", SessionKey: "shard-0", HaveRound: -1},
		&UpdateMsg{Round: 0, Payload: []float64{1, 2, 3}, Weight: 3, MaskHash: 42},
		&UpdateMsg{Round: 1, Payload: []float64{4, 5, 6}, Weight: 3, MaskHash: 42},
	))
	f.Add(encodeAll(&JoinMsg{Name: "reconnector", SessionKey: "k", HaveRound: 7}))
	f.Add([]byte("not a wire frame at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 64<<10 {
			t.Skip("oversized input")
		}
		m, rest, err := wire.Decode(in, joinPayloadLimit)
		if err != nil {
			return
		}
		if _, ok := m.(*JoinMsg); !ok {
			return
		}
		for i := 0; i < 16; i++ {
			m, next, err := wire.Decode(rest, modelPayloadLimit(3))
			if err != nil {
				return
			}
			rest = next
			u, ok := m.(*UpdateMsg)
			if !ok {
				continue
			}
			// The round loop's validation must tolerate anything that
			// decodes: reject or accept, never panic.
			_ = checkUpdates(u.Round, []*UpdateMsg{u})
			_ = checkUpdates(u.Round, []*UpdateMsg{nil, u, {Payload: u.Payload, Weight: 1}})
		}
	})
}

// FuzzClientDecode drives the client's inbound decode path — a WelcomeMsg
// followed by GlobalMsgs — with arbitrary bytes, then pushes the decoded
// messages through the client-side validators.
func FuzzClientDecode(f *testing.F) {
	f.Add(encodeAll(
		&WelcomeMsg{ClientID: 0, NumClients: 2, Rounds: 3, Dim: 3, Init: []float64{1, 2, 3}},
		&GlobalMsg{Round: 0, Payload: []float64{1, 2, 3}, Participants: 2},
		&GlobalMsg{Round: 1, Payload: []float64{4, 5, 6}, Participants: 1},
	))
	f.Add(encodeAll(&WelcomeMsg{
		ClientID: 1, NumClients: 2, Rounds: 8, Dim: 3,
		Init: []float64{1, 2, 3}, Round: 5, Resumed: true,
		Missed: []GlobalMsg{{Round: 4, Payload: []float64{7, 8, 9}, Participants: 2}},
	}))
	f.Add([]byte{0xff, 0xfe, 0x00})

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 64<<10 {
			t.Skip("oversized input")
		}
		m, rest, err := wire.Decode(in, wire.MaxPayload)
		if err != nil {
			return
		}
		w, ok := m.(*WelcomeMsg)
		if !ok {
			return
		}
		_ = checkWelcome(w, 3)
		_ = checkWelcome(w, w.Dim)
		expect := 0
		for i := 0; i < 16; i++ {
			m, next, err := wire.Decode(rest, modelPayloadLimit(3))
			if err != nil {
				return
			}
			rest = next
			g, ok := m.(*GlobalMsg)
			if !ok {
				continue
			}
			if checkGlobal(g, expect, 3, true) == nil {
				expect++
			}
		}
	})
}

// FuzzDurableDecode throws arbitrary bytes at the server's durable
// decoders: the snapshot payload, followed by the checks a restarted
// server applies to it, and the WAL commit record. Nothing may panic, and
// anything that decodes must re-encode to exactly the input bytes — the
// single snapshot layout leaves no second encoding of any state.
func FuzzDurableDecode(f *testing.F) {
	full := &serverState{
		NumClients: 2, Rounds: 9, Init: []float64{1, -2},
		Keys: []string{"k0", ""}, Names: []string{"c0", "c1"},
		History: []GlobalMsg{
			{Round: 3, Participants: 2, Payload: []float64{0.5, math.NaN()}},
			{Round: 4, Participants: 1, Payload: []float64{-0.0}},
		},
		PartialRounds: 1,
		Validator: &validatorState{
			Strikes: []int{0, 3}, Quar: []bool{false, true}, Norms: []float64{1, 2.5},
			Ref: []float64{0.6, -0.8}, RefCount: 4, QuarRound: []int{-1, 2},
		},
		HistoryBase: 3,
		ShadowRound: 4,
		Shadow:      checkpoint.EncodeManager(core.NewManager(core.Config{Dim: 2}).Snapshot()),
		ShadowX:     []float64{0.5, 7},
	}
	f.Add(encodeServerState(full))
	base := &serverState{NumClients: 1, Rounds: 2, Init: []float64{0},
		Keys: []string{"k"}, Names: []string{"c"}, ShadowRound: -1}
	f.Add(encodeServerState(base))
	for _, old := range oldServerSnapshots() {
		f.Add(old)
	}
	f.Add(encodeWALGlobal(&GlobalMsg{Round: 7, Participants: 3, Payload: []float64{1, math.Inf(-1)}}))
	f.Add(encodeWALGlobal(&GlobalMsg{}))
	f.Add([]byte("not a snapshot"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 64<<10 {
			t.Skip("oversized input")
		}
		if st, err := decodeServerState(in); err == nil {
			if out := encodeServerState(st); !bytes.Equal(out, in) {
				t.Fatalf("snapshot decode/encode not canonical:\n in  %x\n out %x", in, out)
			}
			// Recovery checks the state against the run it claims: reject
			// or accept, never panic.
			_ = verifyRecovered(st, ServerConfig{NumClients: st.NumClients, Rounds: st.Rounds, Init: st.Init})
		}
		if g, err := decodeWALGlobal(in); err == nil {
			if out := encodeWALGlobal(g); !bytes.Equal(out, in) {
				t.Fatalf("wal global decode/encode not canonical:\n in  %x\n out %x", in, out)
			}
		}
	})
}
