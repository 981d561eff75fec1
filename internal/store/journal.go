// Package store is specsynd's durability layer: an append-only,
// CRC32-framed journal of session *inputs* (sources, auxiliary texts,
// deletions) plus per-session checkpoints holding the session graph as
// .slif text. The journal is the source of truth — replaying it rebuilds
// every session from scratch — and checkpoints are an optimization that
// lets recovery skip the front end: core.Read the text back to a graph,
// and at most one incremental Reload brings the session to the journal's
// tip.
//
// Crash model: the process can die at any instruction. Every journal
// append is one write + fsync of a self-checking frame; a crash mid-write
// leaves a torn frame that recovery detects (length or CRC mismatch) and
// truncates — the journal is never a reason to refuse startup. Checkpoint
// files are written to a temp name, fsynced, atomically renamed, and the
// directory fsynced, so a checkpoint either exists completely or not at
// all. All I/O goes through faultinject.FS, so the crash model is an
// ordinary test: hand the store a ChaosFS and kill the write you like.
package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
)

// Record is one journaled session mutation. Op "build" carries the full
// input set and resets the session; "reload" advances only the VHDL
// source; "delete" is a tombstone.
type Record struct {
	Seq       uint64 `json:"seq"`
	Op        string `json:"op"`
	ID        string `json:"id"`
	VHDL      string `json:"vhdl,omitempty"`
	Profile   string `json:"profile,omitempty"`
	Library   string `json:"library,omitempty"`
	Overrides string `json:"overrides,omitempty"`
}

const (
	opBuild  = "build"
	opReload = "reload"
	opDelete = "delete"
)

// Journal frame: [u32 payload length][u32 CRC32-IEEE of payload][payload].
const frameHeader = 8

// maxFrame bounds a frame's declared payload length; anything larger is
// corruption (the HTTP layer caps request bodies at 16 MiB well below it).
const maxFrame = 64 << 20

// frame encodes one record for appending.
func frame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: encode record: %w", err)
	}
	b := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(payload))
	copy(b[frameHeader:], payload)
	return b, nil
}

// scanJournal walks data frame by frame, returning the decoded records and
// the byte length of the valid prefix. It never fails: the first torn,
// length-corrupt, CRC-corrupt or undecodable frame ends the scan, and
// recovery truncates the file to good.
func scanJournal(data []byte) (recs []Record, good int64) {
	off := 0
	for off+frameHeader <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if n > maxFrame || off+frameHeader+n > len(data) {
			break // torn or corrupt length
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
			break
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			break
		}
		recs = append(recs, rec)
		off += frameHeader + n
	}
	return recs, int64(off)
}
