package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"specsyn/internal/core"
	"specsyn/internal/faultinject"
)

const journalName = "journal.slifj"

// state is the in-memory tip of one session: the latest merged inputs
// (rec.Seq is the session's newest journal sequence) and the sequence the
// on-disk checkpoint covers (0 = no checkpoint).
type state struct {
	rec     Record
	ckptSeq uint64
}

// Store is the durable session store. It is safe for concurrent use; the
// coarse mutex is fine because appends are small and checkpoint bodies are
// built by the caller.
type Store struct {
	dir string
	fs  faultinject.FS

	mu       sync.Mutex
	seq      uint64 // last sequence number issued
	jf       faultinject.File
	off      int64 // validated journal length; heal truncates back to it
	sessions map[string]*state
	deleted  map[string]uint64 // tombstone → its sequence
}

// RecoveryStats reports what Open found and repaired.
type RecoveryStats struct {
	Records        int   // journal records replayed
	TruncatedBytes int64 // torn/corrupt journal tail discarded
	Sessions       int   // live sessions after replay
	Checkpoints    int   // usable checkpoint files attached
	CorruptCkpts   int   // checkpoint files discarded (bad magic/CRC)
	OrphansRemoved int   // checkpoint files for tombstoned sessions
}

// Open loads (or creates) the store at dir, replaying the journal and
// scanning checkpoints. fsys nil means the real filesystem. Open never
// refuses a corrupt store: torn journal tails are truncated and bad
// checkpoint files dropped, with the damage reported in RecoveryStats.
func Open(dir string, fsys faultinject.FS) (*Store, RecoveryStats, error) {
	if fsys == nil {
		fsys = faultinject.OSFS{}
	}
	var stats RecoveryStats
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, stats, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      dir,
		fs:       fsys,
		sessions: make(map[string]*state),
		deleted:  make(map[string]uint64),
	}

	jpath := filepath.Join(dir, journalName)
	data, err := fsys.ReadFile(jpath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, stats, fmt.Errorf("store: read journal: %w", err)
	}
	recs, good := scanJournal(data)
	if good < int64(len(data)) {
		stats.TruncatedBytes = int64(len(data)) - good
		if err := fsys.Truncate(jpath, good); err != nil {
			return nil, stats, fmt.Errorf("store: truncate torn journal: %w", err)
		}
	}
	stats.Records = len(recs)
	for _, rec := range recs {
		s.apply(rec)
	}

	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, stats, fmt.Errorf("store: %w", err)
	}
	for _, name := range names {
		if filepath.Ext(name) == ".tmp" {
			_ = fsys.Remove(filepath.Join(dir, name)) // crashed mid-checkpoint
			continue
		}
		id, ok := idFromCkptName(name)
		if !ok {
			continue
		}
		raw, err := fsys.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		img, err := decodeCkpt(raw)
		if err != nil || img.ID != id {
			stats.CorruptCkpts++
			_ = fsys.Remove(filepath.Join(dir, name))
			continue
		}
		switch ss := s.sessions[id]; {
		case ss != nil:
			ss.ckptSeq = img.Seq
			stats.Checkpoints++
		case s.deleted[id] > img.Seq:
			// Deleted after this checkpoint was taken; the tombstone wins.
			stats.OrphansRemoved++
			_ = fsys.Remove(filepath.Join(dir, name))
		default:
			// No journal record at all: the journal was compacted past this
			// session, so the checkpoint header is its record of truth.
			s.sessions[id] = &state{
				rec: Record{
					Seq: img.Seq, Op: opBuild, ID: id, VHDL: img.VHDL,
					Profile: img.Profile, Library: img.Library, Overrides: img.Overrides,
				},
				ckptSeq: img.Seq,
			}
			if img.Seq > s.seq {
				s.seq = img.Seq
			}
			stats.Checkpoints++
		}
	}
	stats.Sessions = len(s.sessions)

	jf, err := fsys.Append(jpath)
	if err != nil {
		return nil, stats, fmt.Errorf("store: open journal: %w", err)
	}
	s.jf = jf
	s.off = good
	return s, stats, nil
}

// apply folds one record into the in-memory tip. Caller holds mu (or is
// single-threaded recovery).
func (s *Store) apply(rec Record) {
	if rec.Seq > s.seq {
		s.seq = rec.Seq
	}
	switch rec.Op {
	case opBuild:
		s.sessions[rec.ID] = &state{rec: rec}
		delete(s.deleted, rec.ID)
	case opReload:
		if ss := s.sessions[rec.ID]; ss != nil {
			ss.rec.VHDL = rec.VHDL
			ss.rec.Seq = rec.Seq
		}
	case opDelete:
		delete(s.sessions, rec.ID)
		s.deleted[rec.ID] = rec.Seq
	}
}

// journalPath is the journal's full path.
func (s *Store) journalPath() string { return filepath.Join(s.dir, journalName) }

// heal recovers the append handle after a failed write or sync: the file
// may hold a torn frame, so truncate back to the last validated offset and
// reopen. Caller holds mu. On failure the handle stays nil and the next
// append retries the reopen.
func (s *Store) heal() {
	if s.jf != nil {
		_ = s.jf.Close()
		s.jf = nil
	}
	if err := s.fs.Truncate(s.journalPath(), s.off); err != nil {
		return
	}
	if jf, err := s.fs.Append(s.journalPath()); err == nil {
		s.jf = jf
	}
}

// append journals one record durably (write + fsync) and folds it into the
// in-memory tip, returning its sequence number. A failed append leaves the
// store consistent: the torn tail is truncated and the sequence unissued.
func (s *Store) append(rec Record) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jf == nil {
		s.heal()
		if s.jf == nil {
			return 0, fmt.Errorf("store: journal unavailable after failed append")
		}
	}
	rec.Seq = s.seq + 1
	fr, err := frame(rec)
	if err != nil {
		return 0, err
	}
	if _, err := s.jf.Write(fr); err != nil {
		s.heal()
		return 0, fmt.Errorf("store: journal append: %w", err)
	}
	if err := s.jf.Sync(); err != nil {
		s.heal()
		return 0, fmt.Errorf("store: journal sync: %w", err)
	}
	s.off += int64(len(fr))
	s.apply(rec)
	return rec.Seq, nil
}

// AppendBuild journals a session build (or rebuild) with its full inputs.
func (s *Store) AppendBuild(id, vhdl, profile, library, overrides string) (uint64, error) {
	return s.append(Record{Op: opBuild, ID: id, VHDL: vhdl,
		Profile: profile, Library: library, Overrides: overrides})
}

// AppendReload journals an accepted source reload.
func (s *Store) AppendReload(id, vhdl string) (uint64, error) {
	return s.append(Record{Op: opReload, ID: id, VHDL: vhdl})
}

// AppendDelete journals a session deletion and removes its checkpoint.
func (s *Store) AppendDelete(id string) error {
	if _, err := s.append(Record{Op: opDelete, ID: id}); err != nil {
		return err
	}
	err := s.fs.Remove(filepath.Join(s.dir, ckptName(id)))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: remove checkpoint: %w", err)
	}
	return nil
}

// Checkpoint atomically installs a checkpoint for id: g must be the graph
// built from vhdl (plus the auxiliary inputs), and seq the journal
// sequence that state corresponds to. The graph is stored as its .slif
// text (core.Write). Old checkpoints are replaced; a crash mid-write
// leaves the previous one intact.
func (s *Store) Checkpoint(id string, seq uint64, g *core.Graph, vhdl, profile, library, overrides string) error {
	var text bytes.Buffer
	if err := core.Write(&text, g, nil); err != nil {
		return fmt.Errorf("store: checkpoint %q: %w", id, err)
	}
	buf := encodeCkpt(ckptImage{
		Seq: seq, ID: id, VHDL: vhdl,
		Profile: profile, Library: library, Overrides: overrides, Graph: text.Bytes(),
	})
	if err := atomicWrite(s.fs, s.dir, ckptName(id), buf); err != nil {
		return fmt.Errorf("store: checkpoint %q: %w", id, err)
	}
	s.mu.Lock()
	if ss := s.sessions[id]; ss != nil && seq >= ss.ckptSeq {
		ss.ckptSeq = seq
	}
	s.mu.Unlock()
	return nil
}

// CheckpointData is a decoded checkpoint: the graph as built from VHDL at
// journal sequence Seq.
type CheckpointData struct {
	Seq   uint64
	VHDL  string
	Graph *core.Graph
}

// SessionData is everything recovery needs for one session: the latest
// journaled inputs plus the checkpoint, if one is usable. When Ckpt is
// non-nil and Ckpt.VHDL == VHDL the session restores with no front-end
// work at all; when the source advanced past the checkpoint, one
// incremental Reload closes the gap.
type SessionData struct {
	ID        string
	Seq       uint64
	VHDL      string
	Profile   string
	Library   string
	Overrides string
	Ckpt      *CheckpointData
}

// Load returns the session's recovery data. An unknown id returns (nil,
// err). A known session always returns non-nil data; if its checkpoint
// exists but cannot be decoded, data comes back with Ckpt nil alongside a
// non-nil error describing the damage — callers log it and rebuild through
// the front end.
func (s *Store) Load(id string) (*SessionData, error) {
	s.mu.Lock()
	ss := s.sessions[id]
	if ss == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("store: no session %q", id)
	}
	rec, ckptSeq := ss.rec, ss.ckptSeq
	s.mu.Unlock()

	sd := &SessionData{
		ID: id, Seq: rec.Seq, VHDL: rec.VHDL,
		Profile: rec.Profile, Library: rec.Library, Overrides: rec.Overrides,
	}
	if ckptSeq == 0 {
		return sd, nil
	}
	raw, err := s.fs.ReadFile(filepath.Join(s.dir, ckptName(id)))
	if err != nil {
		return sd, fmt.Errorf("store: checkpoint %q: %w", id, err)
	}
	img, err := decodeCkpt(raw)
	if err != nil {
		return sd, err
	}
	g, _, err := core.Read(bytes.NewReader(img.Graph))
	if err != nil {
		return sd, fmt.Errorf("store: checkpoint %q: %w", id, err)
	}
	sd.Ckpt = &CheckpointData{Seq: img.Seq, VHDL: img.VHDL, Graph: g}
	return sd, nil
}

// Sessions lists the live session ids, sorted.
func (s *Store) Sessions() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Has reports whether id is a live session.
func (s *Store) Has(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id] != nil
}

// CkptSeq returns the journal sequence the session's checkpoint covers
// (0 = none or unknown session).
func (s *Store) CkptSeq(id string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ss := s.sessions[id]; ss != nil {
		return ss.ckptSeq
	}
	return 0
}

// Compact atomically rewrites the journal to one merged build record per
// live session, dropping superseded reloads and tombstones. Sequence
// numbers are preserved, so checkpoints stay correctly ordered against the
// compacted journal.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := make([]Record, 0, len(s.sessions))
	for _, ss := range s.sessions {
		recs = append(recs, ss.rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	var buf []byte
	for _, rec := range recs {
		rec.Op = opBuild // merged state always carries the full input set
		fr, err := frame(rec)
		if err != nil {
			return err
		}
		buf = append(buf, fr...)
	}
	if s.jf != nil {
		_ = s.jf.Close()
		s.jf = nil
	}
	if err := atomicWrite(s.fs, s.dir, journalName, buf); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	jf, err := s.fs.Append(s.journalPath())
	if err != nil {
		return fmt.Errorf("store: compact: reopen journal: %w", err)
	}
	s.jf = jf
	s.off = int64(len(buf))
	s.deleted = make(map[string]uint64)
	return nil
}

// Close releases the journal handle. Appends after Close fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jf == nil {
		return nil
	}
	err := s.jf.Close()
	s.jf = nil
	s.off = -1 // poison: heal() cannot reopen a closed store
	return err
}
