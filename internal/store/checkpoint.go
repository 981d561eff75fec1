package store

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"strings"

	"specsyn/internal/faultinject"
)

// ckptMagic versions the checkpoint container. Version 2 carries the
// graph as .slif text; a version-1 file (a binary snapshot image) fails
// the magic check, and its session rebuilds from the journal.
const ckptMagic = "SLIFCKPT\x02"

// ckptImage is the decoded content of one checkpoint file: the journal
// sequence it covers, the exact inputs that produced the graph (the VHDL
// here is the source the graph was built from, which may lag the journal
// tip), and the graph as core.Write text.
type ckptImage struct {
	Seq       uint64
	ID        string
	VHDL      string
	Profile   string
	Library   string
	Overrides string
	Graph     []byte
}

// ckptName maps a session ID — arbitrary URL-path text — to a safe,
// reversible file name.
func ckptName(id string) string {
	return "ckpt-" + hex.EncodeToString([]byte(id)) + ".slif"
}

// idFromCkptName inverts ckptName; ok is false for foreign files.
func idFromCkptName(name string) (string, bool) {
	h, found := strings.CutPrefix(name, "ckpt-")
	h, ok := strings.CutSuffix(h, ".slif")
	if !found || !ok {
		return "", false
	}
	id, err := hex.DecodeString(h)
	if err != nil {
		return "", false
	}
	return string(id), true
}

func appendStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// encodeCkpt lays the image out as magic, body, CRC32-IEEE of the body.
func encodeCkpt(img ckptImage) []byte {
	b := []byte(ckptMagic)
	b = binary.LittleEndian.AppendUint64(b, img.Seq)
	b = appendStr(b, img.ID)
	b = appendStr(b, img.VHDL)
	b = appendStr(b, img.Profile)
	b = appendStr(b, img.Library)
	b = appendStr(b, img.Overrides)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(img.Graph)))
	b = append(b, img.Graph...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[len(ckptMagic):]))
}

// ckptReader is a bounds-checked cursor with a sticky error: check d.err
// once at the end.
type ckptReader struct {
	data []byte
	off  int
	err  error
}

func (d *ckptReader) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("store: checkpoint: "+format, args...)
	}
}

func (d *ckptReader) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.data) {
		d.fail("truncated at byte %d", d.off)
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *ckptReader) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *ckptReader) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *ckptReader) str() string {
	n := int(d.u32())
	if d.err == nil && d.off+n > len(d.data) {
		d.fail("string length %d exceeds remaining %d bytes", n, len(d.data)-d.off)
	}
	return string(d.take(n))
}

// decodeCkpt validates and decodes one checkpoint file. A file that fails
// here is treated as absent: recovery falls back to replaying the journal
// through the front end.
func decodeCkpt(data []byte) (ckptImage, error) {
	var img ckptImage
	if len(data) < len(ckptMagic)+4 || string(data[:len(ckptMagic)]) != ckptMagic {
		return img, fmt.Errorf("store: checkpoint: bad magic")
	}
	body, sum := data[len(ckptMagic):len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(sum) {
		return img, fmt.Errorf("store: checkpoint: CRC mismatch")
	}
	d := &ckptReader{data: body}
	img.Seq = d.u64()
	img.ID = d.str()
	img.VHDL = d.str()
	img.Profile = d.str()
	img.Library = d.str()
	img.Overrides = d.str()
	img.Graph = d.take(int(d.u32()))
	if d.err == nil && d.off != len(body) {
		d.fail("%d trailing bytes", len(body)-d.off)
	}
	return img, d.err
}

// atomicWrite installs data at dir/name so that a crash at any point
// leaves either the old file or the new one, never a mixture: temp file,
// fsync, rename, directory fsync.
func atomicWrite(fsys faultinject.FS, dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		_ = fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		_ = fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, name)); err != nil {
		_ = fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(dir)
}
