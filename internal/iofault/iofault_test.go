package iofault

import (
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// writeThrough exercises the temp-file+sync+rename+syncdir discipline
// through fsys, the way ckpt.WriteFile and the campaign journal do.
func writeThrough(fsys FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer fsys.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

func TestOSPassthroughRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "f.bin")
	want := []byte("hello crash safety")
	if err := writeThrough(OS, path, want); err != nil {
		t.Fatalf("writeThrough: %v", err)
	}
	got, err := OS.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("round trip got %q want %q", got, want)
	}
	ents, err := OS.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("ReadDir: %v %v", ents, err)
	}
}

func TestInjectorDeterministic(t *testing.T) {
	opt := Options{Seed: 7, WriteFail: 0.3, RenameFail: 0.3, SyncFail: 0.3}
	run := func() []string {
		in := NewInjector(opt)
		dir := t.TempDir()
		var outcomes []string
		for i := 0; i < 50; i++ {
			err := writeThrough(in, filepath.Join(dir, "f.bin"), []byte(strings.Repeat("x", 64)))
			switch {
			case err == nil:
				outcomes = append(outcomes, "ok")
			case errors.Is(err, ErrInjected):
				outcomes = append(outcomes, "injected")
			default:
				t.Fatalf("unexpected real error: %v", err)
			}
		}
		return outcomes
	}
	a, b := run(), run()
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	var injected int
	for _, o := range a {
		if o == "injected" {
			injected++
		}
	}
	if injected == 0 || injected == len(a) {
		t.Fatalf("want a mix of failures and successes at p=0.3, got %d/%d injected", injected, len(a))
	}
}

func TestInjectedErrorsMatchSentinel(t *testing.T) {
	in := NewInjector(Options{Seed: 1, WriteFail: 1})
	err := writeThrough(in, filepath.Join(t.TempDir(), "f"), []byte("data"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if in.Stats().WriteFails == 0 {
		t.Fatalf("write-fail counter not bumped: %+v", in.Stats())
	}
}

func TestTornWritePersistsPrefix(t *testing.T) {
	in := NewInjector(Options{Seed: 3, TornWrite: 1})
	dir := t.TempDir()
	tmp, err := in.CreateTemp(dir, "torn*")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(strings.Repeat("ab", 32))
	_, err = tmp.Write(data)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected torn write, got %v", err)
	}
	tmp.Close()
	got, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) >= len(data) {
		t.Fatalf("torn write persisted %d bytes, want a strict non-empty prefix of %d", len(got), len(data))
	}
}

func TestCorruptReadFlipsExactlyOneBit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	want := []byte(strings.Repeat("payload!", 16))
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	in := NewInjector(Options{Seed: 11, CorruptRead: 1})
	got, err := in.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	diffBits := 0
	for i := range want {
		x := want[i] ^ got[i]
		for ; x != 0; x &= x - 1 {
			diffBits++
		}
	}
	if diffBits != 1 {
		t.Fatalf("corrupt read flipped %d bits, want exactly 1", diffBits)
	}
	// The file at rest is untouched only in the sense that the injector
	// models read-time surfacing; the on-disk bytes stay valid.
	raw, _ := os.ReadFile(path)
	if string(raw) != string(want) {
		t.Fatalf("injector mutated the on-disk file")
	}
}

func TestSlowIOStalls(t *testing.T) {
	in := NewInjector(Options{Seed: 5, Slow: 1, SlowDelay: 20 * time.Millisecond})
	start := time.Now()
	in.Stat(t.TempDir())
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("slow fault did not stall: %v", d)
	}
	if in.Stats().Slowed == 0 {
		t.Fatalf("slow counter not bumped")
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	spec := "write=0.1,torn=0.05,sync=0.2,rename=0.1,read=0.02,corrupt=0.03,slow=0.01:5ms,accept=0.5,connwrite=0.1,seed=42"
	o, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if o.WriteFail != 0.1 || o.TornWrite != 0.05 || o.SyncFail != 0.2 || o.RenameFail != 0.1 ||
		o.ReadFail != 0.02 || o.CorruptRead != 0.03 || o.Slow != 0.01 || o.SlowDelay != 5*time.Millisecond ||
		o.AcceptFail != 0.5 || o.ConnWriteFail != 0.1 || o.Seed != 42 {
		t.Fatalf("parsed %+v", o)
	}
	if !o.Enabled() {
		t.Fatalf("Enabled() false for %+v", o)
	}
	// String renders back to a spec ParseSpec accepts.
	o2, err := ParseSpec(o.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", o.String(), err)
	}
	if o2 != o {
		t.Fatalf("round trip %+v != %+v", o2, o)
	}
	for _, bad := range []string{"write=2", "bogus=0.1", "slow=0.1:nope", "seed=-1", "torn"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
	if o, err := ParseSpec(""); err != nil || o.Enabled() {
		t.Fatalf("empty spec: %+v %v", o, err)
	}
}

func TestWrapListenerAcceptFailure(t *testing.T) {
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	in := NewInjector(Options{Seed: 9, AcceptFail: 1})
	ln := in.WrapListener(base)
	if _, err := ln.Accept(); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected accept failure, got %v", err)
	}
	if in.Stats().AcceptFails == 0 {
		t.Fatalf("accept-fail counter not bumped")
	}
	// No listener fault classes: the listener passes through untouched.
	quiet := NewInjector(Options{Seed: 9, WriteFail: 1})
	if got := quiet.WrapListener(base); got != base {
		t.Fatalf("WrapListener wrapped despite no listener fault classes")
	}
	var nilInj *Injector
	if got := nilInj.WrapListener(base); got != base {
		t.Fatalf("nil injector must pass the listener through")
	}
}

func TestStatsTotalAndString(t *testing.T) {
	in := NewInjector(Options{Seed: 2, WriteFail: 1})
	writeThrough(in, filepath.Join(t.TempDir(), "f"), []byte("x"))
	st := in.Stats()
	if st.Total() == 0 || st.Ops == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
	if !strings.Contains(st.String(), "write-fail") {
		t.Fatalf("String() = %q", st.String())
	}
}

// pipeConns returns a wrapped server conn talking to a raw client conn
// over a real TCP loopback pair.
func pipeConns(t *testing.T, in *Injector) (server, client net.Conn) {
	t.Helper()
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	ln := in.WrapListener(base)
	done := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			done <- nil
			return
		}
		done <- c
	}()
	client, err = net.Dial("tcp", base.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server = <-done
	if server == nil {
		t.FailNow()
	}
	return server, client
}

func TestWrapConnNilAndClean(t *testing.T) {
	// Connection-write probability 0: the wrapped conn passes traffic
	// untouched in both directions.
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	wc := NewInjector(Options{Seed: 3}).wrapConn(c1)
	go c2.Write([]byte("ok"))
	buf := make([]byte, 2)
	if _, err := io.ReadFull(wc, buf); err != nil || string(buf) != "ok" {
		t.Fatalf("clean wrapped conn read: %q %v", buf, err)
	}
	go io.ReadFull(c2, buf)
	if _, err := wc.Write([]byte("ok")); err != nil {
		t.Fatalf("clean wrapped conn write: %v", err)
	}

	// Connection-write probability 1: an accepted conn's first write
	// fails as an injected reset and is counted.
	in := NewInjector(Options{Seed: 3, ConnWriteFail: 1})
	server, client := pipeConns(t, in)
	defer server.Close()
	defer client.Close()
	if _, err := server.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("connwrite=1 write: want injected error, got %v", err)
	}
	if got := in.Stats().ConnFails; got != 1 {
		t.Fatalf("ConnFails = %d, want 1", got)
	}
}
