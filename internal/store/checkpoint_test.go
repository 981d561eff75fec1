package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"specsyn/internal/core"
)

// FuzzCheckpointLoad writes arbitrary bytes as one session's checkpoint
// file — what a torn or bit-rotted checkpoint leaves on disk — then opens
// the store and loads the session. With fixCRC the file's trailing CRC is
// made to match its body first, so the fuzzer also reaches the container
// decoder and core.Read behind the checksum. Invariants: neither Open nor
// Load panics, and a restored graph writes and reads back to the same
// text.
func FuzzCheckpointLoad(f *testing.F) {
	var text bytes.Buffer
	if err := core.Write(&text, testGraph(f), nil); err != nil {
		f.Fatal(err)
	}
	ckpt := encodeCkpt(ckptImage{Seq: 1, ID: "des", VHDL: "v1", Profile: "prof", Graph: text.Bytes()})
	v1 := append([]byte("SLIFCKPT\x01"), ckpt[len(ckptMagic):]...)
	f.Add(ckpt, false)
	f.Add(ckpt[:len(ckpt)/2], false)
	f.Add(v1, false)
	f.Fuzz(func(t *testing.T, data []byte, fixCRC bool) {
		if fixCRC && len(data) >= len(ckptMagic)+4 {
			data = append([]byte{}, data...)
			sum := crc32.ChecksumIEEE(data[len(ckptMagic) : len(data)-4])
			binary.LittleEndian.PutUint32(data[len(data)-4:], sum)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ckptName("des")), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, _, err := Open(dir, nil)
		if err != nil {
			t.Fatalf("Open refused a store over a damaged checkpoint: %v", err)
		}
		defer s.Close()
		if !s.Has("des") {
			return
		}
		sd, _ := s.Load("des")
		if sd == nil || sd.Ckpt == nil {
			return
		}
		var first, second bytes.Buffer
		if err := core.Write(&first, sd.Ckpt.Graph, nil); err != nil {
			t.Fatal(err)
		}
		g, _, err := core.Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("restored graph does not read back: %v\n%s", err, first.String())
		}
		if err := core.Write(&second, g, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("restored graph's text is not stable:\n%s\nvs\n%s", first.String(), second.String())
		}
	})
}
