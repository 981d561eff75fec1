package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specsyn/internal/builder"
	"specsyn/internal/core"
	"specsyn/internal/faultinject"
	"specsyn/internal/graphtest"
	"specsyn/internal/profile"
	"specsyn/internal/syngen"
)

// testGraph builds a small valid design graph directly through the core
// API — the store never runs the front end, so neither do its tests.
func testGraph(t testing.TB) *core.Graph {
	t.Helper()
	g := core.NewGraph("storetest")
	main := &core.Node{Name: "main", Kind: core.BehaviorNode, IsProcess: true}
	v := &core.Node{Name: "v", Kind: core.VariableNode, StorageBits: 64}
	for _, n := range []*core.Node{main, v} {
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
		n.SetICT("proc10", 5)
		n.SetSize("proc10", 50)
	}
	if err := g.AddChannel(&core.Channel{Src: main, Dst: v, AccFreq: 2, AccMax: 2, Bits: 8, Tag: core.NoTag}); err != nil {
		t.Fatal(err)
	}
	g.AddProcessor(&core.Processor{Name: "cpu", TypeName: "proc10", SizeCon: 4096, PinCon: 40})
	g.AddBus(&core.Bus{Name: "bus", BitWidth: 16, TS: 0.05, TD: 0.4})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func mustOpen(t *testing.T, dir string, fsys faultinject.FS) (*Store, RecoveryStats) {
	t.Helper()
	s, stats, err := Open(dir, fsys)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, stats
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, stats := mustOpen(t, dir, nil)
	if stats.Records != 0 || stats.Sessions != 0 {
		t.Fatalf("fresh store stats = %+v", stats)
	}
	if seq, err := s.AppendBuild("des1", "v1", "prof", "lib", "ovr"); err != nil || seq != 1 {
		t.Fatalf("AppendBuild = %d, %v", seq, err)
	}
	if seq, err := s.AppendReload("des1", "v2"); err != nil || seq != 2 {
		t.Fatalf("AppendReload = %d, %v", seq, err)
	}
	if _, err := s.AppendBuild("des2", "w1", "", "", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDelete("des2"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, stats := mustOpen(t, dir, nil)
	if stats.Records != 4 || stats.Sessions != 1 || stats.TruncatedBytes != 0 {
		t.Fatalf("reopen stats = %+v", stats)
	}
	if ids := s2.Sessions(); len(ids) != 1 || ids[0] != "des1" {
		t.Fatalf("Sessions = %v", ids)
	}
	sd, err := s2.Load("des1")
	if err != nil {
		t.Fatal(err)
	}
	if sd.VHDL != "v2" || sd.Profile != "prof" || sd.Library != "lib" ||
		sd.Overrides != "ovr" || sd.Seq != 2 || sd.Ckpt != nil {
		t.Fatalf("Load = %+v", sd)
	}
	if _, err := s2.Load("des2"); err == nil {
		t.Fatal("deleted session still loads")
	}
	// Sequence numbering continues where the journal left off.
	if seq, err := s2.AppendReload("des1", "v3"); err != nil || seq != 5 {
		t.Fatalf("post-recovery append seq = %d, %v", seq, err)
	}
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, nil)
	if _, err := s.AppendBuild("a", "v1", "", "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendReload("a", "v2"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a crash mid-append: half a frame on the end of the journal.
	jpath := filepath.Join(dir, journalName)
	torn, err := frame(Record{Seq: 3, Op: opReload, ID: "a", VHDL: "v3"})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, stats := mustOpen(t, dir, nil)
	if stats.Records != 2 || stats.TruncatedBytes != int64(len(torn)/2) {
		t.Fatalf("recovery stats = %+v", stats)
	}
	sd, err := s2.Load("a")
	if err != nil || sd.VHDL != "v2" {
		t.Fatalf("recovered session = %+v, %v", sd, err)
	}
	// The torn tail is physically gone: the next append lands cleanly and a
	// further recovery sees all three records.
	if seq, err := s2.AppendReload("a", "v3"); err != nil || seq != 3 {
		t.Fatalf("append after truncation = %d, %v", seq, err)
	}
	s2.Close()
	_, stats = mustOpen(t, dir, nil)
	if stats.Records != 3 || stats.TruncatedBytes != 0 {
		t.Fatalf("final stats = %+v", stats)
	}
}

// builtGraph builds a paper example with its profile, or the generated
// syn-pN subject, through the builder as a session does.
func builtGraph(t *testing.T, name string) *core.Graph {
	t.Helper()
	var procs int
	if n, _ := fmt.Sscanf(name, "syn-p%d", &procs); n == 1 {
		g, err := builder.BuildVHDL(syngen.Generate(syngen.Config{Seed: 7, Processes: procs}), builder.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", name+".vhd"))
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.Load(filepath.Join("..", "..", "testdata", name+".prob"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := builder.BuildVHDL(string(src), builder.Options{Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func slifText(t *testing.T, g *core.Graph) string {
	t.Helper()
	var b strings.Builder
	if err := core.Write(&b, g, nil); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCheckpointRestore(t *testing.T) {
	for _, name := range []string{"storetest", "ans", "ether", "fuzzy", "vol", "syn-p32"} {
		t.Run(name, func(t *testing.T) {
			g := testGraph(t)
			if name != "storetest" {
				g = builtGraph(t, name)
			}
			dir := t.TempDir()
			s, _ := mustOpen(t, dir, nil)
			seq, err := s.AppendBuild("des", "vhdl-at-ckpt", "prof", "", "")
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint("des", seq, g, "vhdl-at-ckpt", "prof", "", ""); err != nil {
				t.Fatal(err)
			}
			if s.CkptSeq("des") != seq {
				t.Fatalf("CkptSeq = %d, want %d", s.CkptSeq("des"), seq)
			}
			// The source moves on; the checkpoint lags at seq 1.
			if _, err := s.AppendReload("des", "vhdl-newer"); err != nil {
				t.Fatal(err)
			}
			s.Close()

			s2, stats := mustOpen(t, dir, nil)
			if stats.Checkpoints != 1 || stats.CorruptCkpts != 0 {
				t.Fatalf("stats = %+v", stats)
			}
			sd, err := s2.Load("des")
			if err != nil {
				t.Fatal(err)
			}
			if sd.VHDL != "vhdl-newer" || sd.Ckpt == nil ||
				sd.Ckpt.Seq != seq || sd.Ckpt.VHDL != "vhdl-at-ckpt" {
				t.Fatalf("Load = %+v (ckpt %+v)", sd, sd.Ckpt)
			}
			// The restored graph compiles to the exact bytes of the one
			// checkpointed, and writes the same text, allocation included —
			// the bit-identical recovery guarantee, end to end through the
			// store.
			if !bytes.Equal(graphtest.Bytes(t, sd.Ckpt.Graph), graphtest.Bytes(t, g)) {
				t.Fatal("restored graph does not compile bit-identically")
			}
			if slifText(t, sd.Ckpt.Graph) != slifText(t, g) {
				t.Fatal("restored graph writes different text")
			}
		})
	}
}

func TestCorruptCheckpointDegradesToJournal(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(raw []byte)
	}{
		// One flipped body byte: the CRC catches it and recovery drops the
		// file rather than serving a damaged graph.
		{"flipped byte", func(raw []byte) { raw[len(raw)/2] ^= 0xff }},
		// A version-1 checkpoint (a binary snapshot image) with a valid CRC:
		// the magic refuses it, and the session rebuilds from the journal.
		{"v1 header", func(raw []byte) { raw[len(ckptMagic)-1] = 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := mustOpen(t, dir, nil)
			seq, _ := s.AppendBuild("des", "v1", "", "", "")
			if err := s.Checkpoint("des", seq, testGraph(t), "v1", "", "", ""); err != nil {
				t.Fatal(err)
			}
			s.Close()

			cpath := filepath.Join(dir, ckptName("des"))
			raw, err := os.ReadFile(cpath)
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(raw)
			if err := os.WriteFile(cpath, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			s2, stats := mustOpen(t, dir, nil)
			if stats.CorruptCkpts != 1 || stats.Checkpoints != 0 {
				t.Fatalf("stats = %+v", stats)
			}
			sd, err := s2.Load("des")
			if err != nil || sd == nil || sd.Ckpt != nil || sd.VHDL != "v1" {
				t.Fatalf("Load = %+v, %v", sd, err)
			}
			if _, err := os.Stat(cpath); !os.IsNotExist(err) {
				t.Fatal("corrupt checkpoint file not removed")
			}
		})
	}
}

func TestResurrectFromCheckpointOnly(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, nil)
	g := testGraph(t)
	seq, _ := s.AppendBuild("des", "v1", "prof", "", "")
	if err := s.Checkpoint("des", seq, g, "v1", "prof", "", ""); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// A lost (or compacted-away) journal must not lose the session: the
	// checkpoint header carries enough to resurrect it.
	if err := os.Remove(filepath.Join(dir, journalName)); err != nil {
		t.Fatal(err)
	}
	s2, stats := mustOpen(t, dir, nil)
	if stats.Sessions != 1 || stats.Checkpoints != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	sd, err := s2.Load("des")
	if err != nil || sd.VHDL != "v1" || sd.Profile != "prof" || sd.Ckpt == nil {
		t.Fatalf("Load = %+v, %v", sd, err)
	}
	// Sequence numbers restart above the checkpoint's.
	if nseq, err := s2.AppendReload("des", "v2"); err != nil || nseq != seq+1 {
		t.Fatalf("append = %d, %v", nseq, err)
	}
}

func TestDeleteTombstoneBeatsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, nil)
	g := testGraph(t)
	seq, _ := s.AppendBuild("des", "v1", "", "", "")
	if err := s.Checkpoint("des", seq, g, "v1", "", "", ""); err != nil {
		t.Fatal(err)
	}
	// Crash between the delete record landing and the checkpoint removal:
	// recreate the checkpoint file after AppendDelete removed it.
	if err := s.AppendDelete("des"); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint("des", seq, g, "v1", "", "", ""); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, stats := mustOpen(t, dir, nil)
	if stats.OrphansRemoved != 1 || stats.Sessions != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if s2.Has("des") {
		t.Fatal("tombstoned session resurrected from stale checkpoint")
	}
	if _, err := os.Stat(filepath.Join(dir, ckptName("des"))); !os.IsNotExist(err) {
		t.Fatal("stale checkpoint not removed")
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, nil)
	if _, err := s.AppendBuild("a", "a1", "p", "", ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.AppendReload("a", "a2"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AppendBuild("b", "b1", "", "", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDelete("b"); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction grew the journal: %d → %d", before.Size(), after.Size())
	}
	// The compacted store still appends and still recovers.
	if _, err := s.AppendReload("a", "a3"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, stats := mustOpen(t, dir, nil)
	if stats.Sessions != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	sd, err := s2.Load("a")
	if err != nil || sd.VHDL != "a3" || sd.Profile != "p" {
		t.Fatalf("Load = %+v, %v", sd, err)
	}
}

func TestAppendSurvivesInjectedFaults(t *testing.T) {
	dir := t.TempDir()
	// Writes 1–2 land the first record and its sync ... actually each
	// append is one write + one sync; fail the second append's write and
	// tear the fourth's.
	cfs := faultinject.NewChaosFS(nil, faultinject.FSPlan{FailWriteAt: 2, TornWriteAt: 4})
	s, _, err := Open(dir, cfs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendBuild("a", "v1", "", "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendReload("a", "v2"); err == nil {
		t.Fatal("injected write failure not surfaced")
	}
	// The store healed: the next append succeeds with the next sequence.
	if seq, err := s.AppendReload("a", "v3"); err != nil || seq != 2 {
		t.Fatalf("append after heal = %d, %v", seq, err)
	}
	// Write 4 is torn: half a frame hits the disk, the append fails, and
	// heal truncates it away.
	if _, err := s.AppendReload("a", "v4"); err == nil {
		t.Fatal("injected torn write not surfaced")
	}
	if seq, err := s.AppendReload("a", "v5"); err != nil || seq != 3 {
		t.Fatalf("append after torn heal = %d, %v", seq, err)
	}
	s.Close()

	s2, stats := mustOpen(t, dir, nil)
	if stats.Records != 3 || stats.TruncatedBytes != 0 {
		t.Fatalf("recovery after chaos = %+v", stats)
	}
	sd, err := s2.Load("a")
	if err != nil || sd.VHDL != "v5" {
		t.Fatalf("Load = %+v, %v", sd, err)
	}
}

func TestCheckpointSurvivesRenameFault(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t)
	cfs := faultinject.NewChaosFS(nil, faultinject.FSPlan{FailRenameAt: 2})
	s, _, err := Open(dir, cfs)
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := s.AppendBuild("des", "v1", "", "", "")
	if err := s.Checkpoint("des", seq, g, "v1", "", "", ""); err != nil {
		t.Fatal(err)
	}
	// The second checkpoint's atomic install fails; the first must be
	// untouched and the temp file cleaned up.
	seq2, _ := s.AppendReload("des", "v2")
	if err := s.Checkpoint("des", seq2, g, "v2", "", "", ""); err == nil {
		t.Fatal("injected rename failure not surfaced")
	}
	if s.CkptSeq("des") != seq {
		t.Fatalf("failed checkpoint advanced CkptSeq to %d", s.CkptSeq("des"))
	}
	s.Close()

	s2, stats := mustOpen(t, dir, nil)
	if stats.Checkpoints != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	sd, err := s2.Load("des")
	if err != nil || sd.Ckpt == nil || sd.Ckpt.VHDL != "v1" || sd.VHDL != "v2" {
		t.Fatalf("Load = %+v (ckpt %+v), %v", sd, sd.Ckpt, err)
	}
	names, _ := faultinject.OSFS{}.ReadDir(dir)
	for _, n := range names {
		if filepath.Ext(n) == ".tmp" {
			t.Fatalf("temp file %q left behind", n)
		}
	}
}
