// Package castore is a durable, content-addressed artifact store: the
// on-disk second tier behind the in-memory build cache
// (internal/core/buildcache) and run cache (internal/core/runcache).
// Both in-memory tiers die with their process, so every advm-regress
// invocation starts cold and re-derives work whose keys have not
// changed since the last run. The store keeps those artifacts on disk,
// keyed by the same SHA-256 content addresses, so warm hits survive
// restarts and are shared by concurrent processes.
//
// Layout: one file per entry at objects/<key[:2]>/<key> — a 256-way
// fan-out so no directory grows unboundedly. Each entry is
// self-validating: a magic header, the payload length, the payload, and
// a SHA-256 checksum trailer. A truncated or bit-flipped entry fails
// validation, is deleted, and reads as a miss — the writer that missed
// simply rewrites it, so corruption degrades to a cold entry, never to
// a wrong answer.
//
// Writes are atomic: the payload is staged in tmp/ and renamed into
// place, so a reader never observes a half-written entry and a crashed
// writer leaves only a stale temp file (swept on the next Open). Lock
// takes an advisory flock on a per-key lock file, which the memo table
// in front of the store (internal/core/memo) uses to let one process
// fill a key while same-key writers in other processes wait.
//
// Eviction is LRU by modification time: Get touches the entry's mtime
// (the portable stand-in for atime, which most filesystems mount
// noatime), and GC deletes oldest-first until the store fits a byte
// budget. Soundness of sharing entries across processes rests on the
// same release-label invariant as the in-memory tiers: keys are content
// addresses over frozen inputs, so a key can never name stale data.
package castore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// magic opens every entry file; a version bump changes the tag, so old
// stores read as all-corrupt (= all-miss) rather than misparse.
var magic = []byte("ADVMCAS1")

// entryOverhead is the fixed framing cost per entry: magic, 8-byte
// little-endian payload length, and the 32-byte SHA-256 trailer.
const entryOverhead = len("ADVMCAS1") + 8 + sha256.Size

// statsFile persists the lifetime counters across processes; tmpMaxAge
// is how stale a temp file must be before Open sweeps it (a live writer
// stages and renames in well under a second).
const (
	statsFile         = "stats.json"
	defaultTmpMaxAge  = time.Minute
	defaultGCSlackPct = 90
)

// Options tunes a store.
type Options struct {
	// MaxBytes is the byte budget. When positive, a Put that grows the
	// store past it triggers an LRU sweep back down to GCSlackPct% of
	// the budget. 0 means unbounded (GC only on demand).
	MaxBytes int64
	// GCSlackPct is the fill percentage an automatic sweep evicts down
	// to (default 90): evicting slightly below budget amortises the
	// sweep instead of re-triggering it on the next Put.
	GCSlackPct int
	// TmpMaxAge is how old a staged temp file must be before Open
	// deletes it as crash debris (default one minute). Tests inject a
	// tiny age to exercise the sweep without waiting.
	TmpMaxAge time.Duration
}

// Stats is a snapshot of the store counters. Entries and Bytes describe
// the store on disk; the event counters are lifetime totals, persisted
// in the store directory and merged across every process that used it.
type Stats struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`

	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	Puts         uint64 `json:"puts"`
	Corrupt      uint64 `json:"corrupt"`
	Evicted      uint64 `json:"evicted"`
	EvictedBytes int64  `json:"evicted_bytes"`
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("%d entries, %.1f KiB; lifetime: %d hits, %d misses, %d puts, %d corrupt, %d evicted (%.1f KiB reclaimed)",
		s.Entries, float64(s.Bytes)/1024, s.Hits, s.Misses, s.Puts, s.Corrupt, s.Evicted, float64(s.EvictedBytes)/1024)
}

// Store is one content-addressed artifact store rooted at a directory.
// Create with Open; a Store is safe for concurrent use, and any number
// of processes may share one directory.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	entries int
	bytes   int64
	base    Stats // persisted lifetime counters as of Open
	session Stats // this process's event counters
	gcBusy  bool
}

// Open opens (creating if needed) the store rooted at dir: builds the
// objects/ and tmp/ directories, sweeps crash-stale temp files, counts
// the existing entries, and loads the persisted lifetime counters.
func Open(dir string, opts Options) (*Store, error) {
	if opts.GCSlackPct <= 0 || opts.GCSlackPct > 100 {
		opts.GCSlackPct = defaultGCSlackPct
	}
	if opts.TmpMaxAge <= 0 {
		opts.TmpMaxAge = defaultTmpMaxAge
	}
	s := &Store{dir: dir, opts: opts}
	for _, d := range []string{s.objectsDir(), s.tmpDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("castore: %w", err)
		}
	}
	s.sweepTmp()
	entries, bytes, _, err := s.scan()
	if err != nil {
		return nil, err
	}
	s.entries, s.bytes = entries, bytes
	s.base = s.loadStats()
	return s, nil
}

func (s *Store) objectsDir() string { return filepath.Join(s.dir, "objects") }
func (s *Store) tmpDir() string     { return filepath.Join(s.dir, "tmp") }

// entryPath maps a key to its sharded entry file. Keys are content
// addresses (hex SHA-256 in practice); anything that could escape the
// store directory is rejected.
func (s *Store) entryPath(key string) (string, error) {
	if len(key) < 8 {
		return "", fmt.Errorf("castore: key %q too short", key)
	}
	for _, r := range key {
		switch {
		case r >= '0' && r <= '9', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '-', r == '_':
		default:
			return "", fmt.Errorf("castore: key %q contains %q", key, r)
		}
	}
	return filepath.Join(s.objectsDir(), key[:2], key), nil
}

// sweepTmp deletes crash debris: temp files older than TmpMaxAge. A
// temp file younger than that may belong to a live writer about to
// rename it, so it is left alone.
func (s *Store) sweepTmp() {
	des, err := os.ReadDir(s.tmpDir())
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-s.opts.TmpMaxAge)
	for _, de := range des {
		info, err := de.Info()
		if err == nil && info.ModTime().Before(cutoff) {
			os.Remove(filepath.Join(s.tmpDir(), de.Name()))
		}
	}
}

// entryInfo describes one on-disk entry during a scan.
type entryInfo struct {
	path  string
	size  int64
	mtime time.Time
}

// scan walks objects/ and returns the entry count, total byte size
// (framing included — that is what the budget bounds), and the entries
// themselves, skipping per-key lock files.
func (s *Store) scan() (int, int64, []entryInfo, error) {
	var infos []entryInfo
	var bytes int64
	err := filepath.WalkDir(s.objectsDir(), func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() || filepath.Ext(path) == ".lock" {
			return nil
		}
		info, err := de.Info()
		if err != nil {
			return nil
		}
		infos = append(infos, entryInfo{path: path, size: info.Size(), mtime: info.ModTime()})
		bytes += info.Size()
		return nil
	})
	if err != nil {
		return 0, 0, nil, fmt.Errorf("castore: %w", err)
	}
	return len(infos), bytes, infos, nil
}

// Get returns the payload stored under key. A missing entry is a miss;
// a truncated or checksum-mismatched entry is deleted and reported as a
// miss, so the caller's rewrite heals the store. A hit refreshes the
// entry's mtime, which is the LRU recency GC evicts by.
func (s *Store) Get(key string) ([]byte, bool) {
	path, err := s.entryPath(key)
	if err != nil {
		s.count(func(st *Stats) { st.Misses++ })
		return nil, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		s.count(func(st *Stats) { st.Misses++ })
		return nil, false
	}
	payload, ok := decodeEntry(data)
	if !ok {
		// Corrupt: delete so the next writer rewrites a clean entry.
		if os.Remove(path) == nil {
			s.mu.Lock()
			s.entries--
			s.bytes -= int64(len(data))
			s.mu.Unlock()
		}
		s.count(func(st *Stats) { st.Corrupt++; st.Misses++ })
		return nil, false
	}
	now := time.Now()
	os.Chtimes(path, now, now)
	s.count(func(st *Stats) { st.Hits++ })
	return payload, true
}

// Put stores payload under key: staged in tmp/, checksummed, and
// renamed into place atomically. Re-putting an existing key is a cheap
// overwrite with identical content (keys are content addresses).
func (s *Store) Put(key string, payload []byte) error {
	path, err := s.entryPath(key)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("castore: %w", err)
	}
	tmp, err := os.CreateTemp(s.tmpDir(), "put-*")
	if err != nil {
		return fmt.Errorf("castore: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := writeEntry(tmp, payload); err != nil {
		tmp.Close()
		return fmt.Errorf("castore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("castore: %w", err)
	}
	// Replacing an existing entry must not double-count its size.
	var old int64
	replaced := false
	if info, err := os.Stat(path); err == nil {
		old, replaced = info.Size(), true
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("castore: %w", err)
	}
	size := int64(len(payload) + entryOverhead)
	s.mu.Lock()
	if replaced {
		s.bytes -= old
	} else {
		s.entries++
	}
	s.bytes += size
	s.session.Puts++
	over := s.opts.MaxBytes > 0 && s.bytes > s.opts.MaxBytes && !s.gcBusy
	if over {
		s.gcBusy = true
	}
	s.mu.Unlock()
	if over {
		defer func() {
			s.mu.Lock()
			s.gcBusy = false
			s.mu.Unlock()
		}()
		s.GC(s.opts.MaxBytes * int64(s.opts.GCSlackPct) / 100)
	}
	return nil
}

// Lock takes the cross-process advisory lock for key (an flock on a
// per-key .lock file) and returns the unlock function. It serialises
// same-key writers across processes: the loser of the race blocks, then
// re-reads the key and finds the winner's entry. Lock files are tiny,
// persistent, and skipped by GC. On any error a no-op unlock is
// returned — locking is an optimisation (duplicate suppression), never
// a correctness requirement.
func (s *Store) Lock(key string) func() {
	path, err := s.entryPath(key)
	if err != nil {
		return func() {}
	}
	return flockFile(path + ".lock")
}

// flockFile takes an exclusive advisory flock on path, creating it if
// needed, and returns the unlock function.
func flockFile(path string) func() {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return func() {}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return func() {}
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		f.Close()
		return func() {}
	}
	return func() {
		syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
		f.Close()
	}
}

// GC evicts least-recently-used entries (oldest mtime first; Get
// refreshes mtime) until the store fits budget bytes. Concurrent GCs
// from other processes are excluded by a store-wide lock; losing a
// concurrent race for an individual entry (another process touched or
// removed it) is harmless and skipped. Returns the evicted entry count
// and bytes reclaimed.
func (s *Store) GC(budget int64) (int, int64) {
	unlock := flockFile(filepath.Join(s.dir, "gc.lock"))
	defer unlock()
	entries, bytes, infos, err := s.scan()
	if err != nil {
		return 0, 0
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].mtime.Before(infos[j].mtime) })
	evicted, freed := 0, int64(0)
	for _, e := range infos {
		if bytes <= budget {
			break
		}
		if os.Remove(e.path) != nil {
			continue
		}
		bytes -= e.size
		entries--
		evicted++
		freed += e.size
	}
	s.mu.Lock()
	s.entries, s.bytes = entries, bytes
	s.session.Evicted += uint64(evicted)
	s.session.EvictedBytes += freed
	s.mu.Unlock()
	return evicted, freed
}

// count applies one counter update under the lock.
func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.session)
	s.mu.Unlock()
}

// Stats snapshots the store: live entry/byte accounting plus lifetime
// counters (the persisted totals of every earlier process merged with
// this one's).
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.base
	out.Entries = s.entries
	out.Bytes = s.bytes
	out.Hits += s.session.Hits
	out.Misses += s.session.Misses
	out.Puts += s.session.Puts
	out.Corrupt += s.session.Corrupt
	out.Evicted += s.session.Evicted
	out.EvictedBytes += s.session.EvictedBytes
	return out
}

// Close merges this process's event counters into the persisted stats
// file (under its own file lock, so concurrent processes merge rather
// than clobber). The store directory stays valid; Close is about
// accounting, not resources.
func (s *Store) Close() error {
	unlock := flockFile(filepath.Join(s.dir, "stats.lock"))
	defer unlock()
	cur := s.loadStats()
	s.mu.Lock()
	cur.Hits += s.session.Hits
	cur.Misses += s.session.Misses
	cur.Puts += s.session.Puts
	cur.Corrupt += s.session.Corrupt
	cur.Evicted += s.session.Evicted
	cur.EvictedBytes += s.session.EvictedBytes
	cur.Entries, cur.Bytes = s.entries, s.bytes
	// Fold into base so Stats after Close stays monotonic, and zero the
	// session so a second Close is idempotent.
	s.base, s.session = cur, Stats{}
	s.mu.Unlock()
	data, err := json.MarshalIndent(cur, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.tmpDir(), "stats-*")
	if err != nil {
		return fmt.Errorf("castore: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("castore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("castore: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, statsFile)); err != nil {
		return fmt.Errorf("castore: %w", err)
	}
	return nil
}

// loadStats reads the persisted lifetime counters; a missing or corrupt
// stats file is an empty history (the entries themselves are the data —
// the counters are reporting only).
func (s *Store) loadStats() Stats {
	var st Stats
	data, err := os.ReadFile(filepath.Join(s.dir, statsFile))
	if err != nil || json.Unmarshal(data, &st) != nil {
		return Stats{}
	}
	return st
}

// writeEntry frames one payload: magic, length, payload, checksum.
func writeEntry(f *os.File, payload []byte) error {
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	for _, part := range [][]byte{magic, lenBuf[:], payload, sum[:]} {
		if _, err := f.Write(part); err != nil {
			return err
		}
	}
	return nil
}

// decodeEntry validates one entry file's framing and checksum and
// returns the payload. Any mismatch — short file, wrong magic, length
// disagreement, checksum failure — reads as corrupt.
func decodeEntry(data []byte) ([]byte, bool) {
	if len(data) < entryOverhead {
		return nil, false
	}
	if string(data[:len(magic)]) != string(magic) {
		return nil, false
	}
	n := binary.LittleEndian.Uint64(data[len(magic) : len(magic)+8])
	if uint64(len(data)-entryOverhead) != n {
		return nil, false
	}
	payload := data[len(magic)+8 : len(magic)+8+int(n)]
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(data[len(data)-sha256.Size:]) {
		return nil, false
	}
	return payload, true
}
