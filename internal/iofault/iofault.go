// Package iofault is the infrastructure chaos layer: an injectable
// filesystem/environment abstraction that the simulator's own durability
// machinery — checkpoint writes (internal/ckpt), campaign journal
// flushes (internal/campaign) and the live introspection server
// (internal/obs) — performs its I/O through, plus a deterministic,
// seed-driven fault injector that makes those operations fail the way
// real disks and networks fail: ENOSPC, short (torn) writes, fsync
// failure, rename failure, slow I/O, bit flips in data at rest, and
// refused/accepted-then-broken connections.
//
// The distinction from internal/fault matters: that package injects
// faults *inside* the simulated machine (NoC drops, DRAM timing) to
// exercise the simulator's invariant checkers; this package injects
// faults into the simulator's *own infrastructure* to prove that a
// multi-hour campaign survives the failures clouds actually have. The
// contract every consumer upholds is graceful degradation: an injected
// infrastructure fault may cost durability (a missed checkpoint, a
// buffered journal line, a dead metrics endpoint) but must never abort,
// stall, or perturb the simulation itself — simulation outputs stay
// byte-identical to an undisturbed run.
//
// Like internal/fault, every fault draw comes from a seeded generator
// advanced once per intercepted operation, so a failing soak iteration
// replays bit-for-bit from its seed.
//
// The package is a dependency leaf (stdlib only) so internal/ckpt — also
// a leaf — can write through it.
package iofault

import (
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// File is the writable-file surface WriteFile-style callers need:
// exactly what the temp-file + fsync + rename discipline uses.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Name() string
}

// FS is the filesystem surface the simulator's infrastructure performs
// its durable I/O through. OS is the passthrough implementation; an
// *Injector wraps any FS with a deterministic fault schedule. Keeping
// the surface this narrow (exactly the operations the crash-safe write
// discipline uses) is what makes exhaustive fault coverage feasible.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	RemoveAll(path string) error
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	Stat(name string) (fs.FileInfo, error)
	// SyncDir fsyncs the directory itself, making a preceding rename's
	// directory entry durable. Crash-safety contract: rename alone makes
	// the new name *visible*; only the parent-directory fsync makes it
	// *durable* across power failure. Every temp-file+rename writer in
	// this repo must call SyncDir after the rename.
	SyncDir(dir string) error
}

// OS is the passthrough FS backed by the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }
func (osFS) RemoveAll(path string) error                { return os.RemoveAll(path) }
func (osFS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (osFS) Stat(name string) (fs.FileInfo, error)      { return os.Stat(name) }

func (osFS) SyncDir(dir string) error {
	if dir == "" {
		dir = "."
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		// Some filesystems (and most non-Linux platforms) reject fsync on
		// a directory handle; visibility via rename is the best they
		// offer, so an unsupported sync is not a durability regression we
		// can act on.
		if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) || errors.Is(err, syscall.EBADF) {
			return nil
		}
		return err
	}
	return nil
}

// ErrInjected marks every error manufactured by an Injector, so tests
// and degradation paths can tell injected failures from real ones.
// Match with errors.Is.
var ErrInjected = errors.New("iofault: injected fault")

// Options selects the fault classes and their per-operation rates. All
// probabilities are in [0,1] and are evaluated independently per
// intercepted operation from the seeded draw stream.
type Options struct {
	// Seed drives the deterministic fault schedule. Two injectors with
	// the same Seed and Options fail the same operations in the same
	// order.
	Seed uint64
	// WriteFail is the probability a file write fails with ENOSPC
	// (nothing written).
	WriteFail float64
	// TornWrite is the probability a file write persists only a prefix
	// before failing — the short-write/torn-write case the crash-safe
	// rename discipline must mask.
	TornWrite float64
	// SyncFail is the probability an fsync (file or directory) reports
	// EIO.
	SyncFail float64
	// RenameFail is the probability a rename fails with EIO, leaving the
	// temp file behind.
	RenameFail float64
	// ReadFail is the probability a whole-file read fails with EIO.
	ReadFail float64
	// CorruptRead is the probability a whole-file read succeeds but
	// returns data with one deterministic bit flipped — corruption at
	// rest surfacing at read time.
	CorruptRead float64
	// Slow is the probability any intercepted operation stalls for
	// SlowDelay of wall-clock time before proceeding.
	Slow      float64
	SlowDelay time.Duration
	// AcceptFail is the probability a listener accept fails
	// (non-temporary, so an http.Server.Serve loop exits — the obs
	// degradation path).
	AcceptFail float64
	// ConnWriteFail is the probability an accepted connection's write
	// fails mid-response.
	ConnWriteFail float64
}

// Enabled reports whether any fault class is active.
func (o Options) Enabled() bool {
	return o.WriteFail > 0 || o.TornWrite > 0 || o.SyncFail > 0 || o.RenameFail > 0 ||
		o.ReadFail > 0 || o.CorruptRead > 0 || o.Slow > 0 || o.AcceptFail > 0 ||
		o.ConnWriteFail > 0
}

// String renders the options in ParseSpec syntax.
func (o Options) String() string {
	var parts []string
	add := func(key string, p float64) {
		if p > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", key, p))
		}
	}
	add("write", o.WriteFail)
	add("torn", o.TornWrite)
	add("sync", o.SyncFail)
	add("rename", o.RenameFail)
	add("read", o.ReadFail)
	add("corrupt", o.CorruptRead)
	if o.Slow > 0 {
		parts = append(parts, fmt.Sprintf("slow=%g:%s", o.Slow, o.SlowDelay))
	}
	add("accept", o.AcceptFail)
	add("connwrite", o.ConnWriteFail)
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",") + fmt.Sprintf(",seed=%d", o.Seed)
}

// ParseSpec parses a comma-separated I/O fault specification, e.g.
// "write=0.1,torn=0.05,sync=0.1,rename=0.05,read=0.02,corrupt=0.02,
// slow=0.01:5ms,accept=0.5,connwrite=0.1,seed=42". An empty spec or
// "none" yields zero Options.
func ParseSpec(spec string) (Options, error) {
	var o Options
	o.SlowDelay = DefaultSlowDelay
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return o, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, found := strings.Cut(part, "=")
		if !found {
			return Options{}, fmt.Errorf("iofault: %q is not key=value", part)
		}
		if key == "seed" {
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return Options{}, fmt.Errorf("iofault: seed wants an unsigned integer, got %q", val)
			}
			o.Seed = n
			continue
		}
		if key == "slow" {
			probStr, delayStr, hasDelay := strings.Cut(val, ":")
			p, err := parseProb("slow", probStr)
			if err != nil {
				return Options{}, err
			}
			o.Slow = p
			if hasDelay {
				d, err := time.ParseDuration(delayStr)
				if err != nil || d <= 0 {
					return Options{}, fmt.Errorf("iofault: slow wants prob[:duration], got %q", val)
				}
				o.SlowDelay = d
			}
			continue
		}
		p, err := parseProb(key, val)
		if err != nil {
			return Options{}, err
		}
		switch key {
		case "write":
			o.WriteFail = p
		case "torn":
			o.TornWrite = p
		case "sync":
			o.SyncFail = p
		case "rename":
			o.RenameFail = p
		case "read":
			o.ReadFail = p
		case "corrupt":
			o.CorruptRead = p
		case "accept":
			o.AcceptFail = p
		case "connwrite":
			o.ConnWriteFail = p
		default:
			return Options{}, fmt.Errorf("iofault: unknown fault class %q", key)
		}
	}
	return o, nil
}

func parseProb(key, val string) (float64, error) {
	p, err := strconv.ParseFloat(val, 64)
	if err != nil || p < 0 || p > 1 {
		return 0, fmt.Errorf("iofault: %s wants a probability in [0,1], got %q", key, val)
	}
	return p, nil
}

// DefaultSlowDelay is the stall applied by slow-I/O faults when the spec
// does not name one.
const DefaultSlowDelay = 2 * time.Millisecond

// Stats counts injected faults per class.
type Stats struct {
	WriteFails  uint64
	TornWrites  uint64
	SyncFails   uint64
	RenameFails uint64
	ReadFails   uint64
	Corrupted   uint64
	Slowed      uint64
	AcceptFails uint64
	ConnFails   uint64
	// Ops counts every intercepted operation, injected or not.
	Ops uint64
}

// Total sums the injected-fault counts.
func (s Stats) Total() uint64 {
	return s.WriteFails + s.TornWrites + s.SyncFails + s.RenameFails +
		s.ReadFails + s.Corrupted + s.Slowed + s.AcceptFails + s.ConnFails
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("ops %d: write-fail %d torn %d sync-fail %d rename-fail %d read-fail %d corrupt %d slow %d accept-fail %d conn-fail %d",
		s.Ops, s.WriteFails, s.TornWrites, s.SyncFails, s.RenameFails, s.ReadFails, s.Corrupted, s.Slowed, s.AcceptFails, s.ConnFails)
}

// Injector is an FS (and listener wrapper) that injects faults per a
// deterministic schedule. It is safe for concurrent use: campaign
// workers flush journals and save checkpoints from many goroutines, and
// the obs server accepts from its own.
type Injector struct {
	inner FS

	mu    sync.Mutex
	opt   Options
	state uint64 // splitmix64 stream, advanced once per draw
	stats Stats
}

// NewInjector wraps the real filesystem with the given fault schedule.
func NewInjector(opt Options) *Injector { return NewInjectorFS(OS, opt) }

// NewInjectorFS wraps an arbitrary inner FS (tests stack injectors over
// in-memory filesystems this way).
func NewInjectorFS(inner FS, opt Options) *Injector {
	if opt.SlowDelay <= 0 {
		opt.SlowDelay = DefaultSlowDelay
	}
	return &Injector{inner: inner, opt: opt, state: opt.Seed}
}

// Options returns the injector's fault schedule.
func (in *Injector) Options() Options {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.opt
}

// Stats returns a snapshot of the injected-fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// splitmix64: tiny, well-distributed, and stdlib-free; one step per
// draw keeps the schedule a pure function of (seed, op index).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d9d49bb6a68029
	return z ^ (z >> 31)
}

// draw advances the stream and reports whether a fault with probability
// p fires, bumping the class counter via hit. Callers hold no locks.
func (in *Injector) draw(p float64, hit func(*Stats)) bool {
	if p <= 0 {
		return false
	}
	in.mu.Lock()
	in.state++
	v := splitmix64(in.state)
	fire := float64(v>>11)/float64(1<<53) < p
	if fire && hit != nil {
		hit(&in.stats)
	}
	in.mu.Unlock()
	return fire
}

// op is the common prelude of every intercepted operation: count it and
// apply the slow-I/O class.
func (in *Injector) op() {
	in.mu.Lock()
	in.stats.Ops++
	in.mu.Unlock()
	if in.draw(in.opt.Slow, func(s *Stats) { s.Slowed++ }) {
		time.Sleep(in.opt.SlowDelay)
	}
}

func injectedf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrInjected}, args...)...)
}

// MkdirAll passes through (directory creation is not a fault class; the
// interesting failures are on the write/rename/sync path).
func (in *Injector) MkdirAll(path string, perm os.FileMode) error {
	in.op()
	return in.inner.MkdirAll(path, perm)
}

// CreateTemp passes through but returns a fault-wrapped File.
func (in *Injector) CreateTemp(dir, pattern string) (File, error) {
	in.op()
	f, err := in.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, in: in}, nil
}

// Rename injects EIO rename failures, leaving the source in place as a
// real failed rename would.
func (in *Injector) Rename(oldpath, newpath string) error {
	in.op()
	if in.draw(in.opt.RenameFail, func(s *Stats) { s.RenameFails++ }) {
		return injectedf("rename %s: %v", filepath.Base(oldpath), syscall.EIO)
	}
	return in.inner.Rename(oldpath, newpath)
}

func (in *Injector) Remove(name string) error {
	in.op()
	return in.inner.Remove(name)
}

func (in *Injector) RemoveAll(path string) error {
	in.op()
	return in.inner.RemoveAll(path)
}

// ReadFile injects whole-read EIO failures and corrupt-at-rest bit
// flips: the read succeeds but one deterministically chosen bit of the
// returned data is inverted, exactly what a rotted sector looks like to
// a checksum.
func (in *Injector) ReadFile(name string) ([]byte, error) {
	in.op()
	if in.draw(in.opt.ReadFail, func(s *Stats) { s.ReadFails++ }) {
		return nil, injectedf("read %s: %v", filepath.Base(name), syscall.EIO)
	}
	data, err := in.inner.ReadFile(name)
	if err != nil {
		return data, err
	}
	if len(data) > 0 && in.draw(in.opt.CorruptRead, func(s *Stats) { s.Corrupted++ }) {
		in.mu.Lock()
		in.state++
		bit := splitmix64(in.state) % uint64(len(data)*8)
		in.mu.Unlock()
		data[bit/8] ^= 1 << (bit % 8)
	}
	return data, nil
}

func (in *Injector) ReadDir(name string) ([]fs.DirEntry, error) {
	in.op()
	return in.inner.ReadDir(name)
}

func (in *Injector) Stat(name string) (fs.FileInfo, error) {
	in.op()
	return in.inner.Stat(name)
}

// SyncDir injects directory-fsync failures.
func (in *Injector) SyncDir(dir string) error {
	in.op()
	if in.draw(in.opt.SyncFail, func(s *Stats) { s.SyncFails++ }) {
		return injectedf("fsync dir %s: %v", dir, syscall.EIO)
	}
	return in.inner.SyncDir(dir)
}

// faultFile wraps a temp file with write/sync fault injection.
type faultFile struct {
	File
	in *Injector
}

// Write injects ENOSPC (nothing written) and torn writes (a prefix
// persisted, then failure) — the two shapes a full or dying disk
// produces.
func (f *faultFile) Write(p []byte) (int, error) {
	f.in.op()
	if f.in.draw(f.in.opt.WriteFail, func(s *Stats) { s.WriteFails++ }) {
		return 0, injectedf("write %s: %v", filepath.Base(f.Name()), syscall.ENOSPC)
	}
	if len(p) > 1 && f.in.draw(f.in.opt.TornWrite, func(s *Stats) { s.TornWrites++ }) {
		n, err := f.File.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, injectedf("short write %s: %d of %d bytes: %v", filepath.Base(f.Name()), n, len(p), syscall.ENOSPC)
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	f.in.op()
	if f.in.draw(f.in.opt.SyncFail, func(s *Stats) { s.SyncFails++ }) {
		return injectedf("fsync %s: %v", filepath.Base(f.Name()), syscall.EIO)
	}
	return f.File.Sync()
}

// WrapListener wraps ln with accept and connection-write fault
// injection. A nil injector (or one with no listener fault classes)
// returns ln unchanged.
func (in *Injector) WrapListener(ln net.Listener) net.Listener {
	if in == nil {
		return ln
	}
	o := in.Options()
	if o.AcceptFail <= 0 && o.ConnWriteFail <= 0 {
		return ln
	}
	return &faultListener{Listener: ln, in: in}
}

type faultListener struct {
	net.Listener
	in *Injector
}

// Accept injects non-temporary accept failures, which make an
// http.Server.Serve loop exit — the event the obs server's degradation
// policy must absorb.
func (l *faultListener) Accept() (net.Conn, error) {
	l.in.op()
	if l.in.draw(l.in.opt.AcceptFail, func(s *Stats) { s.AcceptFails++ }) {
		return nil, injectedf("accept: %v", syscall.ECONNABORTED)
	}
	c, err := l.Listener.Accept()
	if err != nil {
		return c, err
	}
	return l.in.wrapConn(c), nil
}

// wrapConn wraps one accepted connection with write-fail injection.
func (in *Injector) wrapConn(c net.Conn) net.Conn {
	return &faultConn{Conn: c, in: in}
}

type faultConn struct {
	net.Conn
	in *Injector
}

// Write injects mid-response connection failures.
func (c *faultConn) Write(p []byte) (int, error) {
	if c.in.draw(c.in.opt.ConnWriteFail, func(s *Stats) { s.ConnFails++ }) {
		c.Conn.Close()
		return 0, injectedf("conn write: %v", syscall.ECONNRESET)
	}
	return c.Conn.Write(p)
}
