package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"slices"
	"testing"
)

// pipeConns returns two ends of an in-memory connection.
func pipeConns() (net.Conn, net.Conn) { return net.Pipe() }

func TestPreambleRoundtrip(t *testing.T) {
	a, b := pipeConns()
	defer a.Close()
	defer b.Close()
	want := preamble{version: wireVersion, worldSize: 7, src: 5, dst: 2}
	done := make(chan error, 1)
	go func() { done <- writePreamble(a, want) }()
	got, err := readPreamble(b)
	if err != nil {
		t.Fatalf("readPreamble: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("writePreamble: %v", err)
	}
	if got != want {
		t.Fatalf("preamble roundtrip: got %+v want %+v", got, want)
	}
}

func TestAckRoundtrip(t *testing.T) {
	a, b := pipeConns()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() { done <- writeAck(a, ackShuttingRun) }()
	status, err := readAck(b)
	if err != nil {
		t.Fatalf("readAck: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("writeAck: %v", err)
	}
	if status != ackShuttingRun {
		t.Fatalf("ack roundtrip: got status %d want %d", status, ackShuttingRun)
	}
}

func TestPreambleRejectsBadMagic(t *testing.T) {
	a, b := pipeConns()
	defer a.Close()
	defer b.Close()
	go func() {
		buf := make([]byte, preambleLen)
		buf[0] = 0xff
		a.Write(buf)
	}()
	if _, err := readPreamble(b); err == nil {
		t.Fatal("readPreamble accepted a bad magic")
	}
}

func TestFrameRoundtrip(t *testing.T) {
	a, b := pipeConns()
	defer a.Close()
	defer b.Close()
	payload := []int64{0, -1, 1 << 40, -(1 << 40), 7}
	done := make(chan error, 1)
	go func() {
		buf := appendFrame(nil, 3, opData, -99, payload)
		_, err := a.Write(buf)
		done <- err
	}()
	f, _, err := readFrame(b, nil)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("write: %v", err)
	}
	if f.kind != 3 || f.op != opData || f.tag != -99 {
		t.Fatalf("frame header: got kind=%d op=%d tag=%d", f.kind, f.op, f.tag)
	}
	if len(f.payload) != len(payload) {
		t.Fatalf("payload length: got %d want %d", len(f.payload), len(payload))
	}
	for i := range payload {
		if f.payload[i] != payload[i] {
			t.Fatalf("payload[%d]: got %d want %d", i, f.payload[i], payload[i])
		}
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	a, b := pipeConns()
	defer a.Close()
	defer b.Close()
	go a.Write(appendFrame(nil, 0, opHeartbeat, 0, nil))
	f, _, err := readFrame(b, nil)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if f.op != opHeartbeat || f.payload != nil {
		t.Fatalf("heartbeat frame: got op=%d payload=%v", f.op, f.payload)
	}
}

func TestFrameRejectsOversizedLength(t *testing.T) {
	a, b := pipeConns()
	defer a.Close()
	defer b.Close()
	go func() {
		buf := appendFrame(nil, 0, opData, 0, nil)
		// Corrupt the word count beyond the bound.
		buf[0], buf[1], buf[2], buf[3] = 0xff, 0xff, 0xff, 0xff
		a.Write(buf)
	}()
	if _, _, err := readFrame(b, nil); err == nil {
		t.Fatal("readFrame accepted an oversized length prefix")
	}
}

func TestAppendFrameReusesBuffer(t *testing.T) {
	buf := appendFrame(nil, 1, opData, 7, []int64{1, 2, 3})
	buf2 := appendFrame(buf, 1, opData, 8, []int64{4})
	if &buf[0] != &buf2[0] {
		t.Fatal("appendFrame reallocated although the buffer was large enough")
	}
}

// TestFrameLargePayloadAcrossGrowthSteps: a payload larger than the first
// 64 KiB staging step arrives through several reads into a growing buffer
// and decodes intact, and the grown buffer then takes the next frame whole.
func TestFrameLargePayloadAcrossGrowthSteps(t *testing.T) {
	a, b := pipeConns()
	defer a.Close()
	defer b.Close()
	payload := make([]int64, 100_003)
	for i := range payload {
		payload[i] = int64(i)*-0x61c8864680b583eb + 1
	}
	go func() {
		a.Write(appendFrame(nil, 2, opData, 5, payload))
		a.Write(appendFrame(nil, 2, opData, 6, payload[:7]))
	}()
	f, rbuf, err := readFrame(b, nil)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if !slices.Equal(f.payload, payload) {
		t.Fatal("large payload changed in transit")
	}
	f, _, err = readFrame(b, rbuf)
	if err != nil || f.tag != 6 || !slices.Equal(f.payload, payload[:7]) {
		t.Fatalf("second frame: tag %d, payload %v, err %v", f.tag, f.payload, err)
	}
}

// TestFrameShortStreamAllocatesWhatArrives: a header announcing the
// largest allowed frame, followed by a few bytes and EOF, fails without
// allocating the 2 GiB the header claims.
func TestFrameShortStreamAllocatesWhatArrives(t *testing.T) {
	a, b := pipeConns()
	defer b.Close()
	go func() {
		hdr := appendFrame(nil, 0, opData, 0, nil)
		binary.LittleEndian.PutUint32(hdr, maxFrameWords)
		a.Write(append(hdr, 1, 2, 3))
		a.Close()
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := readFrame(b, nil); err == nil {
		t.Fatal("readFrame accepted a truncated payload")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("readFrame allocated %d bytes for a 19-byte stream", grew)
	}
}

// wireBytes returns what writePreamble and the frames put on the wire.
func wireBytes(t testing.TB, p preamble, frames ...[]byte) []byte {
	a, b := pipeConns()
	go func() {
		defer a.Close()
		if writePreamble(a, p) != nil {
			return
		}
		for _, fr := range frames {
			if _, err := a.Write(fr); err != nil {
				return
			}
		}
	}()
	defer b.Close()
	out, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzReadFrame feeds arbitrary bytes to the receive side of a connection,
// as tcp.go reads it: a preamble, then frames until the stream ends. A
// peer, or anything else that reaches the port, controls these bytes. The
// reader must end with an error, never a panic or an allocation the stream
// does not pay for, and every frame it accepts must be the bytes it
// consumed: re-encoding it gives the same words, kind, op, tag and payload.
func FuzzReadFrame(f *testing.F) {
	valid := wireBytes(f, preamble{version: wireVersion, worldSize: 4, src: 3, dst: 1},
		appendFrame(nil, 2, opData, -7, []int64{0, -1, 1 << 40}),
		appendFrame(nil, 0, opHeartbeat, 0, nil),
		appendFrame(nil, 5, opData, 3, []int64{42}),
		appendFrame(nil, 0, opAbort, 0, nil))
	f.Add(valid)
	for _, cut := range []int{0, 7, preambleLen, preambleLen + 5, preambleLen + headerLen, preambleLen + headerLen + 12, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	huge := appendFrame(nil, 0, opData, 0, nil)
	binary.LittleEndian.PutUint32(huge, maxFrameWords)
	f.Add(append(valid[:preambleLen:preambleLen], huge...))
	f.Fuzz(func(t *testing.T, in []byte) {
		a, b := pipeConns()
		defer b.Close()
		go func() {
			a.Write(in) // fails once the reader gives up and closes b
			a.Close()
		}()
		if _, err := readPreamble(b); err != nil {
			return
		}
		var rbuf []byte
		for off := preambleLen; ; {
			fr, rb, err := readFrame(b, rbuf)
			rbuf = rb
			if err != nil {
				return
			}
			enc := appendFrame(nil, fr.kind, fr.op, fr.tag, fr.payload)
			if off+len(enc) > len(in) {
				t.Fatalf("frame at %d decodes to %d bytes, only %d were sent", off, len(enc), len(in)-off)
			}
			got := in[off : off+len(enc)]
			if !bytes.Equal(enc[:6], got[:6]) || !bytes.Equal(enc[8:12], got[8:12]) || !bytes.Equal(enc[headerLen:], got[headerLen:]) {
				t.Fatalf("frame at %d re-encodes to %x, consumed %x", off, enc, got)
			}
			off += len(enc)
		}
	})
}

// ackBytes returns what writeAck puts on the wire.
func ackBytes(t testing.TB, status uint32) []byte {
	a, b := pipeConns()
	go func() {
		defer a.Close()
		writeAck(a, status)
	}()
	defer b.Close()
	out, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzReadAck feeds arbitrary bytes to the dialer's side of the
// handshake. The acceptor controls these bytes, so readAck must end with
// an error or with the status the bytes carry after a valid magic, never
// a panic.
func FuzzReadAck(f *testing.F) {
	for _, st := range []uint32{ackOK, ackBadVersion, ackBadSize, ackBadRank, ackShuttingRun, 1 << 31} {
		f.Add(ackBytes(f, st))
	}
	valid := ackBytes(f, ackOK)
	for _, cut := range []int{0, 7, 8, ackLen - 1} {
		f.Add(valid[:cut])
	}
	f.Add(append(valid[:4:4], 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, in []byte) {
		a, b := pipeConns()
		defer b.Close()
		go func() {
			a.Write(in) // fails once the reader gives up and closes b
			a.Close()
		}()
		status, err := readAck(b)
		if err != nil {
			return
		}
		if len(in) < ackLen || binary.LittleEndian.Uint64(in) != wireMagic {
			t.Fatalf("readAck accepted %x: it is short or lacks the magic", in)
		}
		if want := binary.LittleEndian.Uint32(in[8:]); status != want {
			t.Fatalf("readAck returned status %d, the bytes carry %d", status, want)
		}
	})
}
