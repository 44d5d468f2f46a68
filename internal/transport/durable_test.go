package transport

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"apf/internal/checkpoint"
	"apf/internal/core"
	"apf/internal/data"
	"apf/internal/fl"
	"apf/internal/nn"
	"apf/internal/stats"
)

// TestServerStateCodecRoundTrip round-trips the server snapshot and the
// WAL commit record bit-exactly, and refuses the older snapshot layouts.
func TestServerStateCodecRoundTrip(t *testing.T) {
	st := &serverState{
		NumClients:    3,
		Rounds:        12,
		Init:          []float64{0.5, -1.25, 3},
		Keys:          []string{"k0", "", "k2"},
		Names:         []string{"a", "b", "c"},
		PartialRounds: 2,
		History: []GlobalMsg{
			{Round: 2, Participants: 3, Payload: []float64{1, 2, 3}},
			{Round: 3, Participants: 2, Payload: []float64{4, 5}},
		},
		Validator: &validatorState{
			Strikes:   []int{0, 2, 5},
			Quar:      []bool{false, false, true},
			Norms:     []float64{1.5, 0.25, 3},
			Ref:       []float64{0.25, -0.5, 0.125},
			RefCount:  7,
			QuarRound: []int{-1, -1, 4},
		},
		HistoryBase: 2,
		ShadowRound: 3,
		Shadow:      []byte{0xde, 0xad},
		ShadowX:     []float64{7, 8, 9},
	}
	got, err := decodeServerState(encodeServerState(st))
	if err != nil {
		t.Fatalf("decode server state: %v", err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("server state round trip:\n got %+v\nwant %+v", got, st)
	}

	// Sanitization disabled: the snapshot carries no validator state and
	// decodes back to nil.
	st.Validator = nil
	got, err = decodeServerState(encodeServerState(st))
	if err != nil || got.Validator != nil {
		t.Fatalf("nil-validator round trip: %+v err=%v", got.Validator, err)
	}

	for name, payload := range oldServerSnapshots() {
		if _, err := decodeServerState(payload); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("%s: got %v, want checkpoint.ErrCorrupt", name, err)
		}
	}

	g := &GlobalMsg{Round: 4, Participants: 3, Payload: []float64{9, 8, 7}}
	gotG, err := decodeWALGlobal(encodeWALGlobal(g))
	if err != nil || !reflect.DeepEqual(gotG, g) {
		t.Fatalf("wal global round trip: g=%+v err=%v", gotG, err)
	}
}

// oldServerSnapshots hand-builds the snapshot layouts earlier builds
// wrote for a 1-client, 2-round, 1-dim run: before the cosine gate (the
// validator ends after its norms), and before bounded history (no
// catch-up state).
func oldServerSnapshots() map[string][]byte {
	head := func(w *checkpoint.Writer) {
		w.Int(1)             // NumClients
		w.Int(2)             // Rounds
		w.F64s([]float64{0}) // Init
		w.Int(1)             // sessions
		w.String("k0")
		w.String("c0")
		w.Int(0) // history
		w.Int(0) // PartialRounds
	}
	var preCosine checkpoint.Writer
	head(&preCosine)
	preCosine.Bool(true)             // validator present
	preCosine.Ints([]int{3})         // Strikes
	preCosine.Int(1)                 // quarantine flags
	preCosine.Bool(true)             //
	preCosine.F64s([]float64{2})     // Norms — this layout ends here
	var preCatchUp checkpoint.Writer // validator off, no catch-up state
	head(&preCatchUp)
	preCatchUp.Bool(false)
	return map[string][]byte{"pre-cosine": preCosine.Bytes(), "pre-catch-up": preCatchUp.Bytes()}
}

// TestRecoverStateReplaysWAL builds a store by hand and checks recovery
// semantics: committed globals extend the history in order and replays
// of a round the history already holds are skipped.
func TestRecoverStateReplaysWAL(t *testing.T) {
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	base := &serverState{
		NumClients:  2,
		Rounds:      10,
		Init:        []float64{1, 2},
		Keys:        []string{"k0", "k1"},
		Names:       []string{"c0", "c1"},
		History:     []GlobalMsg{{Round: 0, Participants: 2, Payload: []float64{3, 4}}},
		ShadowRound: -1,
	}
	if err := store.WriteSnapshot(1, kindServerSnap, encodeServerState(base)); err != nil {
		t.Fatal(err)
	}
	append_ := func(g *GlobalMsg) {
		t.Helper()
		if err := store.Append(kindWALGlobal, encodeWALGlobal(g)); err != nil {
			t.Fatal(err)
		}
	}
	// Round 1 committed with one of two participants.
	append_(&GlobalMsg{Round: 1, Participants: 1, Payload: []float64{6, 7}})
	// A replayed commit of round 1 (already in history) must be skipped.
	append_(&GlobalMsg{Round: 1, Participants: 2, Payload: []float64{0, 0}})
	// Round 2 was in flight at the crash: nothing of it reached the WAL.

	st, err := recoverState(store, false)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("no state recovered")
	}
	if len(st.History) != 2 {
		t.Fatalf("recovered %d history rounds, want 2 (round 2 was uncommitted)", len(st.History))
	}
	if st.History[1].Round != 1 || st.History[1].Payload[0] != 6 {
		t.Fatalf("history[1] = %+v, want the committed round 1", st.History[1])
	}
	if st.PartialRounds != 1 { // round 1 committed with 1 of 2 participants
		t.Fatalf("partialRounds = %d, want 1", st.PartialRounds)
	}
	if err := verifyRecovered(st, ServerConfig{NumClients: 2, Rounds: 10, Init: []float64{1, 2}}); err != nil {
		t.Fatalf("verifyRecovered: %v", err)
	}

	// Geometry drift must be refused.
	for _, cfg := range []ServerConfig{
		{NumClients: 3, Rounds: 10, Init: []float64{1, 2}},
		{NumClients: 2, Rounds: 11, Init: []float64{1, 2}},
		{NumClients: 2, Rounds: 10, Init: []float64{1, 2.5}},
		{NumClients: 2, Rounds: 10, Init: []float64{1}},
	} {
		if err := verifyRecovered(st, cfg); err == nil {
			t.Fatalf("verifyRecovered accepted mismatched config %+v", cfg)
		}
	}
}

// TestVerifyRecoveredCatchUpState: a snapshot whose catch-up or
// quarantine state does not fit the run it claims is refused with a
// typed error instead of restoring part of a replica.
func TestVerifyRecoveredCatchUpState(t *testing.T) {
	cfg := ServerConfig{NumClients: 2, Rounds: 10, Init: []float64{1, 2}}
	good := func() *serverState {
		return &serverState{
			NumClients: 2, Rounds: 10, Init: []float64{1, 2},
			Keys: []string{"k0", "k1"}, Names: []string{"c0", "c1"},
			History: []GlobalMsg{
				{Round: 0, Participants: 2, Payload: []float64{3, 4}},
				{Round: 1, Participants: 2, Payload: []float64{5, 6}},
			},
			Validator: &validatorState{
				Strikes: []int{0, 1}, Quar: []bool{false, false}, QuarRound: []int{-1, -1},
			},
			ShadowRound: 1,
			Shadow:      []byte{1},
			ShadowX:     []float64{5, 6},
		}
	}
	if err := verifyRecovered(good(), cfg); err != nil {
		t.Fatalf("consistent state refused: %v", err)
	}
	for _, tt := range []struct {
		name   string
		mutate func(*serverState)
		want   error
	}{
		{"short shadow model", func(s *serverState) { s.ShadowX = s.ShadowX[:1] }, ErrShadowLength},
		{"long shadow model", func(s *serverState) { s.ShadowX = append(s.ShadowX, 7) }, ErrShadowLength},
		{"shadow past last commit", func(s *serverState) { s.ShadowRound = 2 }, ErrShadowRound},
		{"shadow round below -1", func(s *serverState) { s.ShadowRound = -2 }, ErrShadowRound},
		{"missing quarantine rounds", func(s *serverState) { s.Validator.QuarRound = nil }, ErrQuarantineRounds},
		{"extra quarantine rounds", func(s *serverState) { s.Validator.QuarRound = []int{-1, -1, -1} }, ErrQuarantineRounds},
	} {
		st := good()
		tt.mutate(st)
		err := verifyRecovered(st, cfg)
		if !errors.Is(err, tt.want) || !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("%s: got %v, want %v (and checkpoint.ErrCorrupt)", tt.name, err, tt.want)
		}
	}

	// The shadow replica itself refuses a model of the wrong length
	// rather than copying a prefix over a stale tail.
	sh := newShadow(core.Config{Dim: 2})
	if err := sh.restore(0, []float64{1}, checkpoint.EncodeManager(sh.mgr.Snapshot())); err == nil {
		t.Fatal("shadow restored a 1-scalar model into a 2-scalar replica")
	}
}

// TestNewServerRejectsOldCheckpoint: a checkpoint directory written in an
// older layout — a server snapshot before the current tails, or a WAL
// holding the per-update records earlier builds appended — makes
// NewServer fail with checkpoint.ErrCorrupt. It never starts a fresh run
// over the directory: the files are left exactly as found.
func TestNewServerRejectsOldCheckpoint(t *testing.T) {
	cfg := func(dir string) ServerConfig {
		return ServerConfig{Addr: "127.0.0.1:0", NumClients: 1, Rounds: 2, Init: []float64{0},
			CheckpointDir: dir, RoundDeadline: time.Second}
	}
	// The per-update record kind earlier builds appended for every
	// admitted update: client id, then the dense update body.
	const oldUpdateKind = checkpoint.KindUser + 1
	var update checkpoint.Writer
	update.Int(0)    // client id
	update.Int(0)    // round
	update.F64(1)    // weight
	update.U64(0)    // mask hash
	update.F64s(nil) // payload

	arms := map[string]func(*checkpoint.Store) error{}
	for name, payload := range oldServerSnapshots() {
		arms[name] = func(store *checkpoint.Store) error { return store.WriteSnapshot(0, kindServerSnap, payload) }
	}
	arms["wal-update-record"] = func(store *checkpoint.Store) error {
		base := &serverState{NumClients: 1, Rounds: 2, Init: []float64{0},
			Keys: []string{"k0"}, Names: []string{"c0"}, ShadowRound: -1}
		if err := store.WriteSnapshot(0, kindServerSnap, encodeServerState(base)); err != nil {
			return err
		}
		return store.Append(oldUpdateKind, update.Bytes())
	}
	for name, write := range arms {
		dir := t.TempDir()
		store, err := checkpoint.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(store); err != nil {
			t.Fatal(err)
		}
		store.Close()
		before := dirContents(t, dir)

		srv, err := NewServer(cfg(dir))
		if err == nil {
			t.Fatalf("%s: NewServer accepted an old-layout checkpoint (start round %d)", name, srv.StartRound())
		}
		if !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("%s: got %v, want checkpoint.ErrCorrupt", name, err)
		}
		if after := dirContents(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: failed start touched the checkpoint directory", name)
		}
	}
}

// dirContents maps each file in dir to its bytes.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// TestWALPartialRecords pins the root tier's WAL semantics: relay
// partials are in-flight state and never logged (the relays' idempotent
// re-sends repopulate a re-opened round), and the partial-round
// re-derivation stays off on the root tier, where Participants counts
// underlying clients while NumClients counts relays.
func TestWALPartialRecords(t *testing.T) {
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	base := &serverState{
		NumClients:  2, // relays on the root tier
		Rounds:      5,
		Init:        []float64{1, 2},
		Keys:        []string{"edge-a", "edge-b"},
		Names:       []string{"edge-a", "edge-b"},
		ShadowRound: -1,
	}
	if err := store.WriteSnapshot(0, kindServerSnap, encodeServerState(base)); err != nil {
		t.Fatal(err)
	}
	// Round 0 committed with one of two relays reporting: Participants
	// carries the client count (1 here), which must NOT feed the
	// partial-round counter on the root tier.
	if err := store.Append(kindWALGlobal, encodeWALGlobal(&GlobalMsg{Round: 0, Participants: 1, Payload: []float64{1, 2}})); err != nil {
		t.Fatal(err)
	}

	st, err := recoverState(store, true)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("no state recovered")
	}
	if len(st.History) != 1 || st.History[0].Round != 0 {
		t.Fatalf("recovered history %+v, want exactly the committed round 0", st.History)
	}
	if st.PartialRounds != 0 {
		t.Fatalf("partialRounds = %d, want 0 (root tier disables the re-derivation)", st.PartialRounds)
	}
}

// TestRestartAfterCompletionReturnsFinalModel restarts a durable server
// whose run already finished: it must come back with the full history and
// return the final global bit-exactly, without waiting for any client.
func TestRestartAfterCompletionReturnsFinalModel(t *testing.T) {
	const clients, rounds = 2, 6
	dir := t.TempDir()
	ds := data.SynthImages(data.ImageConfig{Classes: 3, Channels: 1, Size: 6, Samples: 60, NoiseStd: 0.5, Seed: 5})
	parts := data.PartitionIID(stats.SplitRNG(5, 50), ds.Len(), clients)
	initNet := tinyModel(stats.SplitRNG(5, 99))
	init := nn.FlattenParams(initNet.Params(), nil)

	srv, err := NewServer(ServerConfig{
		Addr:          "127.0.0.1:0",
		NumClients:    clients,
		Rounds:        rounds,
		Init:          init,
		CheckpointDir: dir,
		SnapshotEvery: 4, // the tail rounds live only in the WAL
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var firstGlobal []float64
	serverErr := make(chan error, 1)
	go func() {
		g, err := srv.Run(ctx)
		firstGlobal = g
		serverErr <- err
	}()
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = RunClient(ctx, ClientConfig{
				Addr: srv.Addr().String(), Name: "c", SessionKey: fmt.Sprintf("c%d", i),
				Model: tinyModel, Optimizer: tinySGD,
				Manager: func(clientID, dim int) fl.SyncManager { return fl.NewPassthroughManager(4) },
				Data:    ds, Indices: parts[i], LocalIters: 2, BatchSize: 10, Seed: 5,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if err := <-serverErr; err != nil {
		t.Fatalf("server: %v", err)
	}

	srv2, err := NewServer(ServerConfig{
		Addr:          "127.0.0.1:0",
		NumClients:    clients,
		Rounds:        rounds,
		Init:          init,
		CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if srv2.StartRound() != rounds {
		t.Fatalf("restarted StartRound = %d, want %d", srv2.StartRound(), rounds)
	}
	second, err := srv2.Run(ctx)
	if err != nil {
		t.Fatalf("restarted server: %v", err)
	}
	if len(second) != len(firstGlobal) {
		t.Fatalf("restarted global dim %d, want %d", len(second), len(firstGlobal))
	}
	for j := range firstGlobal {
		if second[j] != firstGlobal[j] {
			t.Fatalf("restarted global differs at scalar %d: %v vs %v", j, second[j], firstGlobal[j])
		}
	}
	// A restart under a different geometry must be refused outright.
	if _, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: clients + 1, Rounds: rounds, Init: init,
		CheckpointDir: dir,
	}); err == nil {
		t.Fatal("restart with a different cluster size accepted")
	}
}

// TestRecoverFromGenerationZeroCheckpoint covers the crash window between
// the base snapshot (written when registration completes) and round 0's
// commit record: the restarted server holds a generation-0 checkpoint
// with an empty history, must NOT try to re-write the base snapshot (the
// store would refuse a same-generation write and brick recovery), and
// must run the whole training to the same final weights as an
// uninterrupted cluster.
func TestRecoverFromGenerationZeroCheckpoint(t *testing.T) {
	const clients, rounds = 2, 5
	ds := data.SynthImages(data.ImageConfig{Classes: 3, Channels: 1, Size: 6, Samples: 60, NoiseStd: 0.5, Seed: 5})
	parts := data.PartitionIID(stats.SplitRNG(5, 50), ds.Len(), clients)
	initNet := tinyModel(stats.SplitRNG(5, 99))
	init := nn.FlattenParams(initNet.Params(), nil)

	runArm := func(name, dir string) []float64 {
		srv, err := NewServer(ServerConfig{
			Addr:          "127.0.0.1:0",
			NumClients:    clients,
			Rounds:        rounds,
			Init:          init,
			RoundDeadline: 5 * time.Second,
			MinClients:    clients, // never aggregate partially: keep both arms deterministic
			CheckpointDir: dir,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if srv.StartRound() != 0 {
			t.Fatalf("%s: StartRound = %d, want 0", name, srv.StartRound())
		}
		// Only the arm handed the pre-populated store may report recovery.
		if srv.Recovered() != (dir != "") {
			t.Fatalf("%s: Recovered = %v with dir %q", name, srv.Recovered(), dir)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		serverErr := make(chan error, 1)
		go func() {
			_, err := srv.Run(ctx)
			serverErr <- err
		}()
		results := make([]*ClientResult, clients)
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = RunClient(ctx, ClientConfig{
					Addr: srv.Addr().String(), Name: fmt.Sprintf("c%d", i), SessionKey: fmt.Sprintf("c%d", i),
					Model: tinyModel, Optimizer: tinySGD,
					Manager: func(clientID, dim int) fl.SyncManager { return fl.NewPassthroughManager(4) },
					Data:    ds, Indices: parts[i], LocalIters: 2, BatchSize: 10, Seed: 5,
				})
			}(i)
			time.Sleep(100 * time.Millisecond) // registration order = shard order
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: client %d: %v", name, i, err)
			}
		}
		if err := <-serverErr; err != nil {
			t.Fatalf("%s: server: %v", name, err)
		}
		return results[0].FinalModel
	}

	clean := runArm("clean", "")

	// Hand-build exactly what a kill -9 inside round 0 leaves behind: the
	// base snapshot at generation 0 and an empty WAL (no commit record).
	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base := &serverState{
		NumClients:  clients,
		Rounds:      rounds,
		Init:        init,
		Keys:        []string{"c0", "c1"},
		Names:       []string{"c0", "c1"},
		ShadowRound: -1,
	}
	if err := store.WriteSnapshot(0, kindServerSnap, encodeServerState(base)); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := runArm("recovered", dir)
	if len(recovered) != len(clean) {
		t.Fatalf("model dims differ: %d vs %d", len(recovered), len(clean))
	}
	for j := range clean {
		if recovered[j] != clean[j] {
			t.Fatalf("round-0 recovery diverged at scalar %d: %v vs %v", j, recovered[j], clean[j])
		}
	}
}

// poisonManager wraps a real APF manager but corrupts every upload:
// non-finite scalars for the first rounds, then 100x-scaled payloads.
// Mask bookkeeping stays delegated, so the poisoned client's mask hash
// agrees with the cluster and only sanitization can catch it.
type poisonManager struct {
	*core.Manager
}

func (p *poisonManager) PrepareUpload(round int, x []float64) ([]float64, float64, int64) {
	contrib, weight, up := p.Manager.PrepareUpload(round, x)
	out := append([]float64(nil), contrib...)
	if round%2 == 0 {
		out[len(out)/2] = math.NaN()
	} else {
		for j := range out {
			out[j] *= 100
		}
	}
	return out, weight, up
}

// TestPoisonedClientQuarantinedTrajectoryUnchanged is the poisoned-update
// acceptance scenario: a cluster of 3 good clients plus one poisoned
// client (NaN and 100x-norm uploads) with sanitization enabled must
// quarantine the attacker and produce the bit-identical trajectory to an
// in-process simulator run over only the good clients.
func TestPoisonedClientQuarantinedTrajectoryUnchanged(t *testing.T) {
	const (
		seed    = 61
		good    = 3
		clients = good + 1
		rounds  = 8
		iters   = 3
		batch   = 10
	)
	ds := data.SynthImages(data.ImageConfig{
		Classes: 3, Channels: 1, Size: 6, Samples: 120, NoiseStd: 0.5, Seed: seed,
	})
	parts := data.PartitionIID(stats.SplitRNG(seed, 50), ds.Len(), clients)
	newAPF := func(dim int) *core.Manager {
		return core.NewManager(core.Config{
			Dim: dim, CheckEveryRounds: 2, Threshold: 0.3, EMAAlpha: 0.85, Seed: seed,
		})
	}

	// Reference arm: the simulator over only the good clients' shards.
	// Client ids and RNG streams line up with TCP clients 0..good-1.
	engine := fl.New(fl.Config{
		Rounds: rounds, LocalIters: iters, BatchSize: batch, Seed: seed,
	}, tinyModel, tinySGD,
		func(clientID, dim int) fl.SyncManager { return newAPF(dim) },
		ds, parts[:good], nil)
	engine.Run()
	simGlobal := engine.Global()

	initNet := tinyModel(stats.SplitRNG(seed, 1_000_000))
	init := nn.FlattenParams(initNet.Params(), nil)
	srv, err := NewServer(ServerConfig{
		Addr:          "127.0.0.1:0",
		NumClients:    clients,
		Rounds:        rounds,
		Init:          init,
		RoundDeadline: 700 * time.Millisecond,
		MinClients:    good,
		Validator:     &ValidatorConfig{MaxNormMult: 10, StrikeLimit: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	serverErr := make(chan error, 1)
	go func() {
		_, err := srv.Run(ctx)
		serverErr <- err
	}()

	results := make([]*ClientResult, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		mf := func(clientID, dim int) fl.SyncManager { return newAPF(dim) }
		if i == clients-1 {
			mf = func(clientID, dim int) fl.SyncManager {
				return &poisonManager{Manager: newAPF(dim)}
			}
		}
		cfg := ClientConfig{
			Addr: srv.Addr().String(), Name: fmt.Sprintf("p-%d", i), SessionKey: fmt.Sprintf("p-%d", i),
			Model: tinyModel, Optimizer: tinySGD, Manager: mf,
			Data: ds, Indices: parts[i], LocalIters: iters, BatchSize: batch, Seed: seed,
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunClient(ctx, cfg)
		}(i)
		time.Sleep(100 * time.Millisecond) // accept order = shard order
	}
	wg.Wait()
	for i := 0; i < good; i++ {
		if errs[i] != nil {
			t.Fatalf("good client %d: %v", i, errs[i])
		}
	}
	if errs[clients-1] != nil {
		t.Fatalf("poisoned client should still complete (it receives aggregates): %v", errs[clients-1])
	}
	if err := <-serverErr; err != nil {
		t.Fatalf("server: %v", err)
	}

	v := srv.Validator()
	if !v.Quarantined(clients - 1) {
		t.Fatalf("poisoned client not quarantined (strikes=%d)", v.Strikes(clients-1))
	}
	for i := 0; i < good; i++ {
		if v.Strikes(i) != 0 {
			t.Fatalf("good client %d charged %d strikes", i, v.Strikes(i))
		}
	}
	// At least the three strike-charging rejections happened; later
	// uploads may instead arrive after their round already closed without
	// the quarantined client (stale, not charged).
	if srv.RejectedUpdates() < 3 {
		t.Fatalf("rejected %d updates, want the 3 striking ones at minimum", srv.RejectedUpdates())
	}
	if srv.PartialRounds() != rounds {
		t.Fatalf("partial rounds = %d, want every round (%d) without the attacker", srv.PartialRounds(), rounds)
	}
	// The good clients' trajectory is bit-identical to the attacker never
	// existing.
	requireMatchesSimulator(t, results[:good], simGlobal)
}

// TestStrictModePoisonAborts checks the strict barrier path: with no
// round deadline a poisoned update is fatal, surfacing the typed
// sanitization error instead of hanging the barrier.
func TestStrictModePoisonAborts(t *testing.T) {
	const clients, rounds = 2, 4
	ds := data.SynthImages(data.ImageConfig{Classes: 3, Channels: 1, Size: 6, Samples: 60, NoiseStd: 0.5, Seed: 5})
	parts := data.PartitionIID(stats.SplitRNG(5, 50), ds.Len(), clients)
	initNet := tinyModel(stats.SplitRNG(5, 99))
	init := nn.FlattenParams(initNet.Params(), nil)

	srv, err := NewServer(ServerConfig{
		Addr:       "127.0.0.1:0",
		NumClients: clients,
		Rounds:     rounds,
		Init:       init,
		Validator:  &ValidatorConfig{MaxNormMult: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	serverErr := make(chan error, 1)
	go func() {
		_, err := srv.Run(ctx)
		serverErr <- err
	}()

	newAPF := func(dim int) *core.Manager {
		return core.NewManager(core.Config{
			Dim: dim, CheckEveryRounds: 2, Threshold: 0.3, EMAAlpha: 0.85, Seed: 5,
		})
	}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		mf := func(clientID, dim int) fl.SyncManager { return newAPF(dim) }
		if i == 1 {
			mf = func(clientID, dim int) fl.SyncManager { return &poisonManager{Manager: newAPF(dim)} }
		}
		cfg := ClientConfig{
			Addr: srv.Addr().String(), Name: fmt.Sprintf("s-%d", i),
			Model: tinyModel, Optimizer: tinySGD, Manager: mf,
			Data: ds, Indices: parts[i], LocalIters: 2, BatchSize: 10, Seed: 5,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = RunClient(ctx, cfg) // fails when the server aborts
		}()
		time.Sleep(50 * time.Millisecond)
	}
	err = <-serverErr
	if !errors.Is(err, ErrNonFiniteUpdate) {
		t.Fatalf("strict server err = %v, want ErrNonFiniteUpdate", err)
	}
	cancel() // release the clients
	wg.Wait()
}
