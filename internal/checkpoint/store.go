package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Store persists a coordinator under one directory as generations of
//
//	snap-<rounds>.ckpt   one frame: state after <rounds> completed rounds
//	wal-<rounds>.log     framed records appended since that snapshot
//
// WriteSnapshot is atomic (tmp file + fsync + rename + directory fsync)
// and rotates the WAL: records always append to the newest generation's
// log, and older generations are pruned once the new snapshot is durable.
// Append fsyncs each record before returning, so a record that was
// acknowledged survives kill -9.
//
// Load recovers the newest generation whose snapshot decodes with a valid
// checksum, then replays its WAL up to the first damaged frame — a torn
// tail (the record being appended when the process died) truncates the
// replay rather than failing it, and is trimmed from the file so records
// appended after recovery stay reachable by the next recovery.
type Store struct {
	dir    string
	rounds int      // generation currently appended to
	wal    *os.File // open WAL of that generation
	obs    Observer // nil disables instrumentation
}

// Observer receives durability events from a Store. checkpoint defines
// the interface itself and carries no telemetry dependency — the metrics
// adapter is injected with SetObserver. Implementations must be cheap;
// they run synchronously on the append path.
type Observer interface {
	// AppendDone fires after each durable (fsync'd) WAL append.
	AppendDone(bytes int, d time.Duration)
	// SnapshotDone fires after each durable snapshot rotation.
	SnapshotDone(rounds, bytes int, d time.Duration)
	// LoadDone fires after recovery: whether a usable snapshot was found,
	// at how many completed rounds, and how many WAL records replayed.
	LoadDone(found bool, rounds, walRecords int, d time.Duration)
}

// SetObserver installs (or, with nil, removes) the store's event hook.
// Call it before the store is shared across goroutines.
func (s *Store) SetObserver(obs Observer) { s.obs = obs }

const (
	snapPrefix = "snap-"
	snapSuffix = ".ckpt"
	walPrefix  = "wal-"
	walSuffix  = ".log"
)

// Open prepares a store in dir, creating it when missing. No files are
// written until the first WriteSnapshot.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create store: %w", err)
	}
	return &Store{dir: dir, rounds: -1}, nil
}

func (s *Store) snapPath(rounds int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%08d%s", snapPrefix, rounds, snapSuffix))
}

func (s *Store) walPath(rounds int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%08d%s", walPrefix, rounds, walSuffix))
}

// generations lists the snapshot round numbers present on disk,
// ascending. Unparseable names are ignored.
func (s *Store) generations() ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: scan store: %w", err)
	}
	var gens []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix))
		if err != nil || n < 0 {
			continue
		}
		gens = append(gens, n)
	}
	sort.Ints(gens)
	return gens, nil
}

// syncDir fsyncs the store directory so renames and unlinks are durable.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteSnapshot durably begins a new generation: the framed snapshot
// payload is written atomically, a fresh (empty) WAL replaces the append
// target, and older generations are pruned. rounds is the number of
// completed rounds the snapshot captures and must increase across calls.
func (s *Store) WriteSnapshot(rounds int, kind uint16, payload []byte) error {
	if rounds < 0 {
		return fmt.Errorf("checkpoint: negative snapshot round %d", rounds)
	}
	if rounds <= s.rounds {
		return fmt.Errorf("checkpoint: snapshot rounds %d not beyond current generation %d", rounds, s.rounds)
	}
	var start time.Time
	if s.obs != nil {
		start = time.Now()
	}
	tmp := filepath.Join(s.dir, fmt.Sprintf(".snap-%08d.tmp", rounds))
	frame := AppendFrame(nil, kind, payload)
	if err := writeFileSync(tmp, frame); err != nil {
		return fmt.Errorf("checkpoint: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, s.snapPath(rounds)); err != nil {
		return fmt.Errorf("checkpoint: publish snapshot: %w", err)
	}
	if err := s.syncDir(); err != nil {
		return fmt.Errorf("checkpoint: sync store: %w", err)
	}

	// The snapshot is durable; switch the WAL and prune behind it.
	if s.wal != nil {
		_ = s.wal.Close()
		s.wal = nil
	}
	wal, err := os.OpenFile(s.walPath(rounds), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: open wal: %w", err)
	}
	prev := s.rounds
	s.wal, s.rounds = wal, rounds
	if prev >= 0 {
		_ = os.Remove(s.snapPath(prev))
		_ = os.Remove(s.walPath(prev))
		_ = s.syncDir()
	}
	if s.obs != nil {
		s.obs.SnapshotDone(rounds, len(frame), time.Since(start))
	}
	return nil
}

// Append durably appends one framed record to the current generation's
// WAL. It must follow a WriteSnapshot (or a Load that found one).
func (s *Store) Append(kind uint16, payload []byte) error {
	if s.wal == nil {
		return fmt.Errorf("checkpoint: append without a snapshot generation")
	}
	var start time.Time
	if s.obs != nil {
		start = time.Now()
	}
	frame := AppendFrame(nil, kind, payload)
	if _, err := s.wal.Write(frame); err != nil {
		return fmt.Errorf("checkpoint: append wal: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("checkpoint: sync wal: %w", err)
	}
	if s.obs != nil {
		s.obs.AppendDone(len(frame), time.Since(start))
	}
	return nil
}

// Record is one replayed WAL entry.
type Record struct {
	Kind    uint16
	Payload []byte
}

// Load recovers the newest consistent generation: it returns the snapshot
// round count, kind and payload, and the WAL records appended after it,
// stopping the replay at the first corrupt frame (torn tail). found is
// false when the store holds no usable snapshot (fresh start). After a
// successful Load, Append continues the recovered generation's WAL.
func (s *Store) Load() (rounds int, kind uint16, payload []byte, wal []Record, found bool, err error) {
	var start time.Time
	if s.obs != nil {
		start = time.Now()
	}
	gens, err := s.generations()
	if err != nil {
		return 0, 0, nil, nil, false, err
	}
	for i := len(gens) - 1; i >= 0; i-- {
		r := gens[i]
		buf, rerr := os.ReadFile(s.snapPath(r))
		if rerr != nil {
			continue
		}
		k, p, rest, ferr := ReadFrame(buf)
		if ferr != nil || len(rest) != 0 {
			continue // damaged snapshot: fall back to the previous generation
		}
		records, intact := s.replayWAL(r)
		f, oerr := os.OpenFile(s.walPath(r), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if oerr != nil {
			return 0, 0, nil, nil, false, fmt.Errorf("checkpoint: reopen wal: %w", oerr)
		}
		// Cut off a torn tail before appending: a corrupt frame left in
		// the middle of the log would stop every future replay there and
		// silently orphan the records appended after it.
		if terr := truncateSync(f, intact); terr != nil {
			f.Close()
			return 0, 0, nil, nil, false, fmt.Errorf("checkpoint: trim torn wal tail: %w", terr)
		}
		if s.wal != nil {
			_ = s.wal.Close()
		}
		s.wal, s.rounds = f, r
		if s.obs != nil {
			s.obs.LoadDone(true, r, len(records), time.Since(start))
		}
		return r, k, p, records, true, nil
	}
	if s.obs != nil {
		s.obs.LoadDone(false, 0, 0, time.Since(start))
	}
	return 0, 0, nil, nil, false, nil
}

// replayWAL reads a generation's records up to the first damaged frame,
// returning them together with the byte length of the intact prefix.
func (s *Store) replayWAL(rounds int) ([]Record, int64) {
	buf, err := os.ReadFile(s.walPath(rounds))
	if err != nil {
		return nil, 0
	}
	var out []Record
	total := len(buf)
	for {
		kind, payload, rest, err := ReadFrame(buf)
		if err != nil {
			// io.EOF: clean end; ErrCorrupt/ErrVersion: torn tail.
			return out, int64(total - len(buf))
		}
		out = append(out, Record{Kind: kind, Payload: append([]byte(nil), payload...)})
		buf = rest
	}
}

// truncateSync shortens f to size iff it is longer, making the cut
// durable.
func truncateSync(f *os.File, size int64) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() <= size {
		return nil
	}
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

// Close releases the open WAL handle.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
