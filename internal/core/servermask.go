package core

import (
	"fmt"
	"sync"
)

// Server-side mask placement (§9, "Placement of freezing mask
// computation"): when client compute is the scarce resource (IoT devices),
// the stability checking can run once on the FL server instead of N times
// on the clients. The server drives a single Manager with the global model
// trajectory — which is exactly the synchronized state every client-side
// manager would observe, so the resulting masks are bit-identical to the
// client-side placement — and ships each client the *changes* to the mask
// (§9: "instead of transmitting the full mask vector, we can otherwise
// transfer a dense representation including change-indexes").
//
// MaskServer owns the manager; MaskClient is the thin per-client
// SyncManager that applies rollbacks and accounts for the mask-delta
// downlink bytes.

// MaskServer computes freezing masks centrally from the global model
// trajectory. It is safe for concurrent use by the per-client MaskClients.
type MaskServer struct {
	mu sync.Mutex

	manager *Manager
	x       []float64 // server-side replica of the synchronized state

	lastRound   int
	lastChanged []int  // indices whose frozen bit flipped at lastRound
	lastFrozen  []bool // full mask after lastRound
}

// NewMaskServer constructs the central mask computer with the same Config
// an equivalent client-side Manager would use.
func NewMaskServer(cfg Config) *MaskServer {
	m := NewManager(cfg)
	return &MaskServer{
		manager:   m,
		x:         make([]float64, m.cfg.Dim),
		lastRound: -1,
	}
}

// observe folds the round's aggregated global vector into the manager
// (idempotently — the first caller for a round performs the work, the
// remaining clients reuse the result) and returns the mask delta and the
// full mask for the *next* round.
func (s *MaskServer) observe(round int, global []float64) (changed []int, frozen []bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if round == s.lastRound {
		return s.lastChanged, s.lastFrozen
	}
	if round < s.lastRound {
		panic(fmt.Sprintf("core: mask server observed round %d after round %d", round, s.lastRound))
	}

	prev := s.lastFrozen
	// Drive the embedded manager exactly like a client whose local state
	// is the synchronized state: rollback is a no-op on it, and the
	// stability check sees the same deltas every client-side manager
	// would.
	s.manager.PostIterate(round, s.x)
	s.manager.ApplyDownload(round, s.x, global)

	next := make([]bool, s.manager.cfg.Dim)
	s.manager.refreshMask(round + 1)
	s.manager.mask.IterateSet(func(j int) { next[j] = true })

	var delta []int
	for j := range next {
		was := prev != nil && prev[j]
		if next[j] != was {
			delta = append(delta, j)
		}
	}
	s.lastRound = round
	s.lastChanged = delta
	s.lastFrozen = next
	return delta, next
}

// Dim returns the model dimension.
func (s *MaskServer) Dim() int { return s.manager.cfg.Dim }

// MaskClient is the client-side counterpart of a MaskServer: it freezes
// and elides parameters exactly like a full Manager, but receives its mask
// from the server instead of computing it — trading a small mask-delta
// downlink cost for zero client-side stability computation.
type MaskClient struct {
	srv           *MaskServer
	bytesPerValue int64

	frozen []bool
	ref    []float64
	// maskBytes accumulated into the next ApplyDownload's accounting.
}

// NewMaskClient constructs a client attached to srv.
func NewMaskClient(srv *MaskServer, bytesPerValue int) *MaskClient {
	if srv == nil {
		panic("core: nil mask server")
	}
	return &MaskClient{
		srv:           srv,
		bytesPerValue: int64(bytesPerValue),
		frozen:        make([]bool, srv.Dim()),
		ref:           make([]float64, srv.Dim()),
	}
}

// PostIterate rolls frozen scalars back to their reference values.
func (c *MaskClient) PostIterate(_ int, x []float64) {
	for j, f := range c.frozen {
		if f {
			x[j] = c.ref[j]
		}
	}
}

// PrepareUpload pushes the unfrozen scalars.
func (c *MaskClient) PrepareUpload(_ int, x []float64) ([]float64, float64, int64) {
	contrib := append([]float64(nil), x...)
	unfrozen := 0
	for j, f := range c.frozen {
		if f {
			contrib[j] = c.ref[j]
		} else {
			unfrozen++
		}
	}
	return contrib, 1, int64(unfrozen) * c.bytesPerValue
}

// ApplyDownload pulls the unfrozen scalars, then fetches the round's mask
// delta from the server; the delta's transfer cost (4 bytes per changed
// index) is charged to the downlink, as §9 prescribes.
func (c *MaskClient) ApplyDownload(round int, x, global []float64) int64 {
	unfrozen := 0
	for j, f := range c.frozen {
		if f {
			x[j] = c.ref[j]
		} else {
			x[j] = global[j]
			c.ref[j] = global[j]
			unfrozen++
		}
	}

	changed, frozen := c.srv.observe(round, global)
	copy(c.frozen, frozen)
	for _, j := range changed {
		if c.frozen[j] {
			c.ref[j] = x[j] // value pinned while frozen
		}
	}
	return int64(unfrozen)*c.bytesPerValue + int64(len(changed))*4
}

// FrozenRatio reports the frozen fraction of the current mask.
func (c *MaskClient) FrozenRatio() float64 {
	n := 0
	for _, f := range c.frozen {
		if f {
			n++
		}
	}
	if len(c.frozen) == 0 {
		return 0
	}
	return float64(n) / float64(len(c.frozen))
}

// MaskWords renders the mask in bitset word layout for consistency tests.
func (c *MaskClient) MaskWords() []uint64 {
	words := make([]uint64, (len(c.frozen)+63)/64)
	for j, f := range c.frozen {
		if f {
			words[j/64] |= 1 << (j % 64)
		}
	}
	return words
}
