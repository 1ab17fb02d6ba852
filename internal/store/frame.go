package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The frame is the repository's one unit of on-disk integrity. Every byte
// the WAL, the history store and the tool segment files read back sits
// inside a frame, apart from each file's 8-byte magic, which is compared
// exactly:
//
//	u32 LE payload length | u32 LE CRC32C(length bytes ‖ payload) | payload
//
// The checksum covers the length field too, so a flipped length bit cannot
// re-align the scan onto bytes that happen to checksum. Writers never emit
// an empty frame, so a run of zeros (what some filesystems leave past a
// crash) reads as damage rather than as a valid empty frame.

// FrameHeader is the byte size of a frame's length and checksum fields.
const FrameHeader = 8

// maxFrame bounds a frame's payload; a larger length is damage.
const maxFrame = 1 << 30

// errBadFrame reports a frame whose length or checksum is wrong.
var errBadFrame = errors.New("store: bad frame")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func frameCRC(lenField, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum(lenField, castagnoli), castagnoli, payload)
}

// AppendFrame appends payload to dst as one frame.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [FrameHeader]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], frameCRC(hdr[:4], payload))
	return append(append(dst, hdr[:]...), payload...)
}

// checkHeader validates a frame header against its payload.
func checkHeader(hdr, payload []byte) error {
	if n := binary.LittleEndian.Uint32(hdr[:4]); n == 0 || n > maxFrame || int(n) != len(payload) {
		return fmt.Errorf("%w: length %d", errBadFrame, n)
	}
	if binary.LittleEndian.Uint32(hdr[4:]) != frameCRC(hdr[:4], payload) {
		return fmt.Errorf("%w: checksum mismatch", errBadFrame)
	}
	return nil
}

// ScanFrames reads frames from r until EOF or the first damaged frame. It
// calls fn with each intact payload (valid only during the call) and the
// frame's offset from the start of r; fn returning an error marks that
// frame damaged too. It returns the byte length of the clean prefix and
// the damage that ended the scan: nil when r ended exactly on a frame
// boundary, otherwise an error wrapping errBadFrame, io.ErrUnexpectedEOF or
// fn's error. What to do with the damage is the caller's policy.
func ScanFrames(r io.Reader, fn func(off int64, payload []byte) error) (clean int64, damage error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 64<<10)
	}
	var hdr [FrameHeader]byte
	var buf []byte
	for {
		n, err := io.ReadFull(br, hdr[:])
		if n == 0 && err == io.EOF {
			return clean, nil
		}
		if err != nil {
			return clean, fmt.Errorf("frame at %d: torn header: %w", clean, io.ErrUnexpectedEOF)
		}
		size := binary.LittleEndian.Uint32(hdr[:4])
		if buf, err = readGrowing(br, buf, int(size)); err != nil {
			return clean, fmt.Errorf("frame at %d: torn payload: %w", clean, io.ErrUnexpectedEOF)
		}
		if err := checkHeader(hdr[:], buf); err != nil {
			return clean, fmt.Errorf("frame at %d: %w", clean, err)
		}
		if err := fn(clean, buf); err != nil {
			return clean, fmt.Errorf("frame at %d: %w", clean, err)
		}
		clean += FrameHeader + int64(size)
	}
}

// readGrowing reads exactly n bytes into buf's storage, growing it only as
// data actually arrives, so a corrupt length cannot allocate more than the
// input holds.
func readGrowing(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		k, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+k]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// ReadFrameAt reads and verifies the frame at off whose payload is size
// bytes long, returning the payload: the re-read path for a frame a scan
// already admitted, so what is served can never differ from what was
// checked.
func ReadFrameAt(r io.ReaderAt, off int64, size int) ([]byte, error) {
	buf := make([]byte, FrameHeader+size)
	if _, err := r.ReadAt(buf, off); err != nil {
		return nil, err
	}
	if err := checkHeader(buf[:FrameHeader], buf[FrameHeader:]); err != nil {
		return nil, err
	}
	return buf[FrameHeader:], nil
}
