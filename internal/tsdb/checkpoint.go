package tsdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
)

// The live-archive commit protocol.
//
// A batch archive becomes readable only at Close, when the footer and tail
// land. A live archive (Writer opened with OpenAppend) publishes two kinds
// of durable record instead, both sidecars next to the archive:
//
//   - The checkpoint (<archive>.ckpt), rewritten whenever a block seals
//     and whenever the dictionary grows: the committed data length
//     ("everything before this offset is valid, everything after is an
//     uncommitted tail"), a monotonic commit version, and a full footer
//     payload — the same string table / topology dictionary / block index
//     bytes Close would write — so a recovering writer and a tailing reader
//     reconstruct the sealed state without scanning the data file.
//   - The head (<archive>.head, see head.go), appended by every Sync: the
//     points and events not sealed yet, one CRC-framed frame per Sync.
//
// Ordering makes the protocol crash-safe. Sealed block bytes are flushed
// and fsynced to the data file BEFORE the checkpoint is replaced
// (write-ahead), and the checkpoint itself is replaced atomically (temp
// file, fsync, rename, directory fsync). A crash therefore leaves either
// the old checkpoint (the new tail is simply not committed yet and is
// truncated on recovery) or the new one (the tail is fully durable). A head
// frame only references dictionary entries a checkpoint already committed,
// so Sync commits one first when a map or topology is new; Sync returns
// once its frame is fsynced. A sealed block leaves the points it covers in
// the head, where replay skips them as dead: the head never has to shrink
// before the checkpoint that seals its points is durable, and a crash
// between the two replays them from the head. Creating or compacting the
// head (temp file, fsync, rename, directory fsync) happens only after the
// commit covering whatever it drops. The data file's committed prefix is
// never rewritten, which is also what gives concurrent readers snapshot
// isolation: every offset a published checkpoint covers holds immutable
// bytes forever. A reader reads the head before the checkpoint, so every
// live point is in the head bytes it read or sealed in the commit it read
// after them.
//
// Close seals every open block, commits, writes the standard footer, then
// deletes the checkpoint and, last, the head, so a cleanly closed live
// archive is byte-for-byte a normal batch archive, and a head left beside
// a closed archive adds nothing.

// ckptMagic heads a checkpoint sidecar file.
const ckptMagic = "wmtsckp\n"

// ckptHeaderLen is the fixed checkpoint prefix: magic, u64 dataEnd,
// u64 version, u32 CRC32(payload), u64 payloadLen.
const ckptHeaderLen = len(ckptMagic) + 8 + 8 + 4 + 8

// CheckpointPath returns the sidecar commit file the live-append protocol
// maintains next to an archive.
func CheckpointPath(archivePath string) string { return archivePath + ".ckpt" }

// checkpoint is one decoded commit record.
type checkpoint struct {
	dataEnd int64  // committed length of the archive data file
	version uint64 // monotonic commit counter, starts at 1
	payload []byte // footer payload: strings, topologies, block index
	hdr     [ckptHeaderLen]byte
}

// fingerprintState derives the archive fingerprint of a committed state:
// FNV-1a over the data length and the footer payload of a closed archive,
// or over the data length and the fixed header of a live checkpoint, whose
// CRC32 covers its payload — so the fingerprint (and with it every ETag)
// rolls forward exactly when committed content changes, and a refresh
// fingerprints a new checkpoint without a pass over its payload.
func fingerprintState(dataEnd int64, payload []byte) uint64 {
	h := fnv.New64a()
	var szb [8]byte
	binary.LittleEndian.PutUint64(szb[:], uint64(dataEnd))
	h.Write(szb[:])
	h.Write(payload)
	return h.Sum64()
}

// readCheckpoint loads and validates a commit record. A missing file
// returns an error wrapping fs.ErrNotExist; anything structurally invalid
// is a *CorruptError — a checkpoint is replaced atomically, so a damaged
// one is real corruption, not a torn write to ignore. It reads the fixed
// header first and the payload only when the header differs from same
// (nil: always): an equal header still describes the file, and the result
// is (nil, nil).
func readCheckpoint(path string, same *[ckptHeaderLen]byte) (*checkpoint, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, err // no checkpoint: an idle closed-archive poll formats nothing
	}
	if err != nil {
		return nil, fmt.Errorf("tsdb: checkpoint: %w", err)
	}
	defer f.Close()
	ck := &checkpoint{}
	n, err := f.ReadAt(ck.hdr[:], 0)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("tsdb: checkpoint: %w", err)
	}
	if n < ckptHeaderLen {
		return nil, corruptf(0, "checkpoint of %d bytes is shorter than the %d-byte header", n, ckptHeaderLen)
	}
	data := ck.hdr[:]
	if string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, corruptf(0, "bad checkpoint magic %q", data[:len(ckptMagic)])
	}
	p := len(ckptMagic)
	dataEnd := binary.LittleEndian.Uint64(data[p:])
	version := binary.LittleEndian.Uint64(data[p+8:])
	sum := binary.LittleEndian.Uint32(data[p+16:])
	plen := binary.LittleEndian.Uint64(data[p+20:])
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("tsdb: checkpoint: %w", err)
	}
	if have := fi.Size() - int64(ckptHeaderLen); plen != uint64(have) {
		return nil, corruptf(int64(p+20), "checkpoint payload length %d disagrees with the %d bytes present", plen, have)
	}
	if same != nil && *same == ck.hdr {
		return nil, nil
	}
	payload := make([]byte, plen)
	if _, err := f.ReadAt(payload, int64(ckptHeaderLen)); err != nil && err != io.EOF {
		return nil, fmt.Errorf("tsdb: checkpoint: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, corruptf(int64(ckptHeaderLen), "checkpoint payload checksum mismatch")
	}
	if dataEnd > uint64(1)<<62 || int64(dataEnd) < int64(len(headerMagic)) {
		return nil, corruptf(int64(p), "checkpoint data end %d impossible", dataEnd)
	}
	if version == 0 {
		return nil, corruptf(int64(p+8), "checkpoint version 0")
	}
	ck.dataEnd, ck.version, ck.payload = int64(dataEnd), version, payload
	return ck, nil
}

// writeCheckpoint atomically and durably replaces the commit record: the
// new record is written to a temp file, fsynced, renamed over the old one,
// and the directory is fsynced so the rename itself survives a power loss.
// The caller must have already flushed and fsynced the data file up to
// dataEnd.
func writeCheckpoint(path string, dataEnd int64, version uint64, payload []byte) error {
	buf := make([]byte, 0, ckptHeaderLen+len(payload))
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(dataEnd))
	buf = binary.LittleEndian.AppendUint64(buf, version)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)

	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return fmt.Errorf("tsdb: checkpoint: %w", err)
	}
	if _, err := f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("tsdb: checkpoint: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs the directory dir, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("tsdb: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("tsdb: sync dir: %w", err)
	}
	return nil
}

// committed is an archive's durable commit state: the one form in which
// both the Reader and the resuming Writer load a closed footer or a live
// checkpoint.
type committed struct {
	fd      *footerData
	payload []byte              // the footer or checkpoint payload fd was parsed from
	dataEnd int64               // end of the data section: every frame lies below it
	size    int64               // readable byte bound: file size (closed) or dataEnd (live)
	version uint64              // checkpoint commit version; 0 for a closed footer
	live    bool                // loaded from a checkpoint (the archive may still grow)
	hdr     [ckptHeaderLen]byte // live: the checkpoint header read; closed: the tail, in hdr[:tailLen]
}

// loadCommitted reads the commit state of the archive file f: the
// checkpoint at ckptPath when the live-append protocol maintains one, else
// the footer of the closed archive. The committed data must still be in
// the file and start with the header magic. An empty file without a
// checkpoint has committed nothing: loadCommitted returns nil, nil. prev,
// when not nil, is the state a reader holds: a checkpoint whose header is
// unchanged returns prev itself, and so does a closed archive whose size
// and tail are prev's; a new checkpoint reuses prev's strings and
// topologies where the new tables extend them.
func loadCommitted(f *os.File, ckptPath string, prev *committed) (*committed, error) {
	var same *[ckptHeaderLen]byte
	var prevFD *footerData
	if prev != nil {
		prevFD = prev.fd
		if prev.live {
			same = &prev.hdr
		}
	}
	ck, err := readCheckpoint(ckptPath, same)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	if ck == nil && err == nil {
		return prev, nil
	}
	// Stat after reading the checkpoint: a live writer grows the file
	// before it commits, so the size covers any checkpoint read first.
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	if ck == nil {
		if fi.Size() == 0 {
			return nil, nil
		}
		if prev != nil && !prev.live && fi.Size() == prev.size {
			var tail [tailLen]byte
			if _, err := f.ReadAt(tail[:], fi.Size()-tailLen); err == nil && [tailLen]byte(prev.hdr[:tailLen]) == tail {
				return prev, nil
			}
		}
		return loadClosed(f, fi.Size())
	}
	if fi.Size() < ck.dataEnd {
		return nil, corruptf(fi.Size(), "archive holds %d bytes but the checkpoint committed %d — committed data lost", fi.Size(), ck.dataEnd)
	}
	if err := checkHeader(f, ck.dataEnd); err != nil {
		return nil, err
	}
	fd, err := parseFooter(ck.payload, 0, ck.dataEnd, prevFD)
	if err != nil {
		return nil, err
	}
	return &committed{fd: fd, payload: ck.payload, dataEnd: ck.dataEnd, size: ck.dataEnd, version: ck.version, live: true, hdr: ck.hdr}, nil
}

// loadClosed validates a closed archive's framing (header magic, tail
// magic, footer checksum) and parses its footer.
func loadClosed(r io.ReaderAt, size int64) (*committed, error) {
	minSize := int64(len(headerMagic) + tailLen)
	if size < minSize {
		return nil, corruptf(0, "archive of %d bytes is shorter than the %d-byte minimum", size, minSize)
	}
	if err := checkHeader(r, size); err != nil {
		return nil, err
	}
	tail, err := readAtFull(r, size, size-int64(tailLen), tailLen, nil)
	if err != nil {
		return nil, err
	}
	if string(tail[12:]) != tailMagic {
		return nil, corruptf(size-8, "bad tail magic %q (archive not closed?)", tail[12:])
	}
	footerLen := binary.LittleEndian.Uint64(tail[4:12])
	footerStart := size - int64(tailLen) - int64(footerLen)
	if footerLen > math.MaxInt32 || footerStart < int64(len(headerMagic)) {
		return nil, corruptf(size-16, "footer length %d exceeds archive", footerLen)
	}
	footer, err := readAtFull(r, size, footerStart, int(footerLen), nil)
	if err != nil {
		return nil, err
	}
	if sum := crc32.ChecksumIEEE(footer); sum != binary.LittleEndian.Uint32(tail[:4]) {
		return nil, corruptf(footerStart, "footer checksum mismatch")
	}
	fd, err := parseFooter(footer, footerStart, footerStart, nil)
	if err != nil {
		return nil, err
	}
	c := &committed{fd: fd, payload: footer, dataEnd: footerStart, size: size}
	copy(c.hdr[:], tail)
	return c, nil
}

// checkHeader verifies the file magic within the first size bytes.
func checkHeader(r io.ReaderAt, size int64) error {
	head, err := readAtFull(r, size, 0, len(headerMagic), nil)
	if err != nil {
		return err
	}
	if string(head) != headerMagic {
		return corruptf(0, "bad header magic %q", head)
	}
	return nil
}
