package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
)

// Wire protocol of the TCP backend.
//
// Each rank pair shares one persistent full-duplex connection, established
// by the higher rank dialing the lower one (so rank 0 — the natural
// rendezvous point — only accepts). A connection starts with a fixed-size
// preamble from the dialer and an ack from the acceptor; after that both
// directions carry a stream of frames:
//
//	preamble (24 B): magic | version | world size | src rank | dst rank
//	ack      (12 B): magic | status
//	frame  (16 B + payload): words | kind | op | tag | seq-less payload of words×8 B
//
// A connection lives as long as the world: the handshake runs once per
// rank pair, and an error on the stream aborts the world instead of
// reopening the link.
//
// All integers are little-endian. Payload words are int64.

const (
	wireMagic   uint64 = 0x50484950_54435031 // "PHIPTCP1"
	wireVersion uint32 = 2

	preambleLen = 24
	ackLen      = 12
	headerLen   = 16

	// maxFrameWords bounds a frame payload (2 GiB) so a corrupt length
	// prefix cannot OOM the receiver.
	maxFrameWords = 1 << 28
)

// Frame ops: what the 16-byte header announces.
const (
	opData      uint8 = 0 // payload frame for the rank layer
	opHeartbeat uint8 = 1 // liveness beacon, empty payload
	opAbort     uint8 = 2 // cooperative world abort propagation
)

// Ack status codes.
const (
	ackOK          uint32 = 0
	ackBadVersion  uint32 = 1
	ackBadSize     uint32 = 2
	ackBadRank     uint32 = 3
	ackShuttingRun uint32 = 4
)

func ackStatusString(s uint32) string {
	switch s {
	case ackOK:
		return "ok"
	case ackBadVersion:
		return "protocol version mismatch"
	case ackBadSize:
		return "world size mismatch"
	case ackBadRank:
		return "unexpected rank"
	case ackShuttingRun:
		return "peer shutting down"
	default:
		return fmt.Sprintf("status %d", s)
	}
}

// preamble is the dialer's connection opener.
type preamble struct {
	version   uint32
	worldSize uint32
	src, dst  uint32
}

func writePreamble(conn net.Conn, p preamble) error {
	var buf [preambleLen]byte
	binary.LittleEndian.PutUint64(buf[0:], wireMagic)
	binary.LittleEndian.PutUint32(buf[8:], p.version)
	binary.LittleEndian.PutUint32(buf[12:], p.worldSize)
	binary.LittleEndian.PutUint32(buf[16:], p.src)
	binary.LittleEndian.PutUint32(buf[20:], p.dst)
	_, err := conn.Write(buf[:])
	return err
}

func readPreamble(conn net.Conn) (preamble, error) {
	var buf [preambleLen]byte
	if _, err := io.ReadFull(conn, buf[:]); err != nil {
		return preamble{}, err
	}
	if m := binary.LittleEndian.Uint64(buf[0:]); m != wireMagic {
		return preamble{}, fmt.Errorf("transport: bad preamble magic %#x", m)
	}
	return preamble{
		version:   binary.LittleEndian.Uint32(buf[8:]),
		worldSize: binary.LittleEndian.Uint32(buf[12:]),
		src:       binary.LittleEndian.Uint32(buf[16:]),
		dst:       binary.LittleEndian.Uint32(buf[20:]),
	}, nil
}

func writeAck(conn net.Conn, status uint32) error {
	var buf [ackLen]byte
	binary.LittleEndian.PutUint64(buf[0:], wireMagic)
	binary.LittleEndian.PutUint32(buf[8:], status)
	_, err := conn.Write(buf[:])
	return err
}

func readAck(conn net.Conn) (status uint32, err error) {
	var buf [ackLen]byte
	if _, err = io.ReadFull(conn, buf[:]); err != nil {
		return 0, err
	}
	if m := binary.LittleEndian.Uint64(buf[0:]); m != wireMagic {
		return 0, fmt.Errorf("transport: bad ack magic %#x", m)
	}
	return binary.LittleEndian.Uint32(buf[8:]), nil
}

// appendFrame encodes a frame header + payload into buf (reused across
// calls; grown as needed) and returns the encoded bytes.
func appendFrame(buf []byte, kind, op uint8, tag int32, payload []int64) []byte {
	need := headerLen + 8*len(payload)
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(payload)))
	buf[4] = kind
	buf[5] = op
	buf[6], buf[7] = 0, 0 // reserved
	binary.LittleEndian.PutUint32(buf[8:], uint32(tag))
	binary.LittleEndian.PutUint32(buf[12:], 0) // reserved
	out := buf[headerLen:]
	for i, v := range payload {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
	}
	return buf
}

// wireFrame is a decoded inbound frame before rank attribution.
type wireFrame struct {
	kind, op uint8
	tag      int32
	payload  []int64 // from Handlers.Acquire; nil for empty payloads
}

// readFrame reads one frame. rbuf is the reusable byte staging buffer
// (returned possibly grown); the payload slice comes from acquire.
func readFrame(conn net.Conn, rbuf []byte, acquire func(n int) []int64) (wireFrame, []byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return wireFrame{}, rbuf, err
	}
	words := binary.LittleEndian.Uint32(hdr[0:])
	if words > maxFrameWords {
		return wireFrame{}, rbuf, fmt.Errorf("transport: frame of %d words exceeds the %d-word bound", words, maxFrameWords)
	}
	f := wireFrame{
		kind: hdr[4],
		op:   hdr[5],
		tag:  int32(binary.LittleEndian.Uint32(hdr[8:])),
	}
	n := int(words)
	if n == 0 {
		return f, rbuf, nil
	}
	if acquire == nil {
		acquire = func(n int) []int64 { return make([]int64, n) }
	}
	// Grow the buffer as the payload arrives (doubling from 64 KiB), so a
	// corrupt length on a short stream cannot force a 2 GiB allocation.
	need := 8 * n
	rbuf = rbuf[:0]
	for got := 0; got < need; {
		step := need - got
		if cap(rbuf) < need {
			step = min(step, max(got, 64<<10))
		}
		rbuf = slices.Grow(rbuf, step)[:got+step]
		if _, err := io.ReadFull(conn, rbuf[got:]); err != nil {
			return wireFrame{}, rbuf, err
		}
		got += step
	}
	f.payload = acquire(n)
	for i := range f.payload {
		f.payload[i] = int64(binary.LittleEndian.Uint64(rbuf[8*i:]))
	}
	return f, rbuf, nil
}
