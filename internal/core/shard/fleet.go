package shard

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core/memo"
)

// ConnectOptions configures one remote worker slot joining a daemon's
// pool over TCP.
type ConnectOptions struct {
	WorkerOptions
	// Name identifies this machine/slot in the daemon's logs (defaults
	// to the connection's local address).
	Name string
	// Ping is the heartbeat interval this worker commits to in its
	// hello; the daemon declares the machine dead after missing several
	// (0 = DefaultPing).
	Ping time.Duration
	// Wait is the dial retry window (0 = 10s), so a worker racing a
	// just-started daemon joins as soon as the socket exists.
	Wait time.Duration
}

// ConnectWorker dials a remote daemon and serves its pool as one worker
// slot over TCP, exactly as RunWorker serves a local one: the hello
// handshake, heartbeats, then jobs until the daemon hangs up. Returns
// nil when the daemon hangs up cleanly.
func ConnectWorker(addr string, opts ConnectOptions) error {
	ping := opts.Ping
	if ping <= 0 {
		ping = DefaultPing
	}
	wait := opts.Wait
	if wait <= 0 {
		wait = 10 * time.Second
	}
	nc, err := Dial(addr, wait)
	if err != nil {
		return err
	}
	defer nc.Close()
	return work(NewConn(nc, nc), opts.WorkerOptions, opts.Name, ping)
}

// handshakeHello sends a hello and consumes the daemon's answer: a
// welcome admits the connection, an error frame (epoch mismatch, wrong
// role) is surfaced verbatim.
func handshakeHello(conn *Conn, h *Hello) error {
	if err := conn.Write(Frame{Type: FrameHello, Hello: h}); err != nil {
		return err
	}
	f, err := conn.Read()
	if err != nil {
		return fmt.Errorf("shard: handshake: %w", err)
	}
	switch f.Type {
	case FrameWelcome:
		return nil
	case FrameError:
		return fmt.Errorf("shard: daemon refused registration: %s", f.Error)
	default:
		return fmt.Errorf("shard: handshake expected welcome, got %q", f.Type)
	}
}

// RemoteStore is a castore-shaped Backend served by a remote daemon
// over the frame protocol: Get/Put round-trips on one dedicated
// store-role connection, payloads checksummed in both directions so a
// transport bit-flip degrades to a miss, never a wrong artifact. It is
// how a remote worker warm-starts from the daemon's persistent store
// and fills daemon misses back with its own work.
type RemoteStore struct {
	mu   sync.Mutex // one round-trip at a time
	nc   net.Conn
	conn *Conn
}

// DialStore opens a store channel to the daemon at addr (same retry
// window semantics as Dial).
func DialStore(addr string, wait time.Duration) (*RemoteStore, error) {
	nc, err := Dial(addr, wait)
	if err != nil {
		return nil, err
	}
	conn := NewConn(nc, nc)
	if err := handshakeHello(conn, &Hello{Role: RoleStore}); err != nil {
		nc.Close()
		return nil, err
	}
	return &RemoteStore{nc: nc, conn: conn}, nil
}

// Close hangs up the store channel.
func (r *RemoteStore) Close() error { return r.nc.Close() }

// roundTrip performs one store operation under the connection lock.
func (r *RemoteStore) roundTrip(f Frame) (*StoreFrame, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.conn.Write(f); err != nil {
		return nil, err
	}
	reply, err := r.conn.Read()
	if err != nil {
		return nil, err
	}
	if reply.Type == FrameError {
		return nil, fmt.Errorf("shard: store channel: %s", reply.Error)
	}
	if reply.Type != FrameStoreData || reply.Store == nil {
		return nil, fmt.Errorf("shard: store channel expected store-data, got %q", reply.Type)
	}
	return reply.Store, nil
}

// Get fetches the payload under key from the daemon's store. Transport
// failures and checksum mismatches read as misses — persistence is an
// optimisation, never a correctness dependency.
func (r *RemoteStore) Get(key string) ([]byte, bool) {
	sf, err := r.roundTrip(Frame{Type: FrameStoreGet, Store: &StoreFrame{Key: key}})
	if err != nil || !sf.OK {
		return nil, false
	}
	if payloadSum(sf.Data) != sf.Sum {
		return nil, false
	}
	return sf.Data, true
}

// Put stores the payload under key in the daemon's store — the
// fill-back half of fetch-through.
func (r *RemoteStore) Put(key string, data []byte) error {
	sf, err := r.roundTrip(Frame{Type: FrameStorePut,
		Store: &StoreFrame{Key: key, Data: data, Sum: payloadSum(data)}})
	if err != nil {
		return err
	}
	if !sf.OK {
		return fmt.Errorf("shard: remote put %s: %s", key, sf.Err)
	}
	return nil
}

// Lock is a no-op across the wire: cross-process write deduplication is
// an optimisation, and the daemon's own store still coalesces same-key
// writers that reach its disk.
func (r *RemoteStore) Lock(key string) func() { return func() {} }

// FetchThrough layers a local persistent tier in front of a remote one:
// Get serves local hits without a round-trip, fills the local tier from
// remote hits, and Put writes through to both — so a remote machine
// warm-starts from the daemon's store once, then runs at local-disk
// speed.
type FetchThrough struct {
	Local  memo.Backend
	Remote memo.Backend
}

// Get consults the local tier, then the remote, filling the local tier
// on a remote hit.
func (f *FetchThrough) Get(key string) ([]byte, bool) {
	if f.Local != nil {
		if data, ok := f.Local.Get(key); ok {
			return data, true
		}
	}
	if f.Remote == nil {
		return nil, false
	}
	data, ok := f.Remote.Get(key)
	if !ok {
		return nil, false
	}
	if f.Local != nil {
		f.Local.Put(key, data) // best effort: a failed local fill is just a future round-trip
	}
	return data, true
}

// Put writes through to both tiers; the remote error wins (the local
// tier is a cache of the fleet's shared truth).
func (f *FetchThrough) Put(key string, data []byte) error {
	if f.Local != nil {
		f.Local.Put(key, data)
	}
	if f.Remote == nil {
		return nil
	}
	return f.Remote.Put(key, data)
}

// Lock delegates to the local tier (same-machine writers), since remote
// locking is a no-op anyway.
func (f *FetchThrough) Lock(key string) func() {
	if f.Local != nil {
		return f.Local.Lock(key)
	}
	return func() {}
}
