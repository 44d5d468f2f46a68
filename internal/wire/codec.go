package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"apf/internal/checkpoint"
)

// appendBody serializes a JoinMsg body.
func (m *JoinMsg) appendBody(w *checkpoint.Writer) {
	w.String(m.Name)
	w.String(m.SessionKey)
	w.Int(m.HaveRound)
	w.U64(m.Caps)
}

// readJoin decodes a JoinMsg body.
func readJoin(r *checkpoint.Reader) *JoinMsg {
	return &JoinMsg{Name: r.String(), SessionKey: r.String(), HaveRound: r.Int(), Caps: r.U64()}
}

// appendBody serializes a WelcomeMsg body.
func (m *WelcomeMsg) appendBody(w *checkpoint.Writer) {
	w.Int(m.ClientID)
	w.Int(m.NumClients)
	w.Int(m.Rounds)
	w.Int(m.Dim)
	w.F64s(m.Init)
	w.Int(m.Round)
	w.Bool(m.Resumed)
	w.Int(len(m.Missed))
	for i := range m.Missed {
		AppendGlobalBody(w, &m.Missed[i])
	}
	w.U16(uint16(m.Codec))
	w.Bool(m.CatchUp)
	w.Int(m.MaskGen)
}

// globalBodyMinLen is the encoded size of a GlobalMsg with an empty
// payload (round + participants + length prefix, 8 bytes each); it bounds
// hostile missed-list counts before allocation.
const globalBodyMinLen = 24

// readWelcome decodes a WelcomeMsg body.
func readWelcome(r *checkpoint.Reader) *WelcomeMsg {
	m := &WelcomeMsg{
		ClientID:   r.Int(),
		NumClients: r.Int(),
		Rounds:     r.Int(),
		Dim:        r.Int(),
		Init:       r.F64s(),
		Round:      r.Int(),
		Resumed:    r.Bool(),
	}
	n := r.Int()
	if r.Err() != nil {
		return m
	}
	if n < 0 || n > r.Remaining()/globalBodyMinLen {
		r.Fail("missed-payload count overruns frame")
		return m
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Missed = append(m.Missed, ReadGlobalBody(r))
	}
	c := r.U16()
	if r.Err() == nil && c > uint16(CodecSparseQ16) {
		r.Fail(fmt.Sprintf("unknown negotiated codec %d", c))
	}
	m.Codec = Codec(c)
	m.CatchUp = r.Bool()
	m.MaskGen = r.Int()
	return m
}

// appendBody serializes an UpdateMsg body.
func (m *UpdateMsg) appendBody(w *checkpoint.Writer) {
	w.Int(m.Round)
	w.F64(m.Weight)
	w.U64(m.MaskHash)
	w.F64s(m.Payload)
}

// readUpdate decodes an UpdateMsg body.
func readUpdate(r *checkpoint.Reader) *UpdateMsg {
	return &UpdateMsg{Round: r.Int(), Weight: r.F64(), MaskHash: r.U64(), Payload: r.F64s()}
}

// AppendGlobalBody serializes a GlobalMsg body without the frame — shared
// by the socket codec, the WelcomeMsg missed-payload list, and the
// transport's WAL commit records.
func AppendGlobalBody(w *checkpoint.Writer, m *GlobalMsg) {
	w.Int(m.Round)
	w.Int(m.Participants)
	w.F64s(m.Payload)
}

// ReadGlobalBody decodes an AppendGlobalBody encoding.
func ReadGlobalBody(r *checkpoint.Reader) GlobalMsg {
	return GlobalMsg{Round: r.Int(), Participants: r.Int(), Payload: r.F64s()}
}

// appendBody serializes a GlobalMsg body.
func (m *GlobalMsg) appendBody(w *checkpoint.Writer) { AppendGlobalBody(w, m) }

// Append frames m and appends the frame to dst, returning the extended
// slice. The result is self-contained and immutable once built: broadcast
// paths encode a message once and hand the same frame to every connection.
func Append(dst []byte, m Msg) []byte {
	var w checkpoint.Writer
	m.appendBody(&w)
	payload := w.Bytes()
	if len(payload) > MaxPayload {
		panic(fmt.Sprintf("wire: message payload %d exceeds MaxPayload", len(payload)))
	}
	start := len(dst)
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	hdr[4] = Version
	hdr[5] = byte(m.WireKind())
	binary.LittleEndian.PutUint32(hdr[6:], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	sum := crc32.ChecksumIEEE(dst[start:])
	var tr [trailerLen]byte
	binary.LittleEndian.PutUint32(tr[0:], sum)
	return append(dst, tr[:]...)
}

// Encode frames m into a fresh buffer.
func Encode(m Msg) []byte { return Append(nil, m) }

// checkHeader validates a frame header against limit, returning the kind
// and payload length.
func checkHeader(hdr []byte, limit int) (Kind, int, error) {
	if binary.LittleEndian.Uint32(hdr[0:]) != frameMagic {
		return 0, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := hdr[4]; v != Version {
		return 0, 0, fmt.Errorf("%w: frame version %d, this build speaks %d", ErrVersion, v, Version)
	}
	kind := Kind(hdr[5])
	if kind < KindJoin || kind > KindDelta {
		return 0, 0, fmt.Errorf("%w: kind %d", ErrUnknownKind, uint8(kind))
	}
	if limit <= 0 || limit > MaxPayload {
		limit = MaxPayload
	}
	n := int(binary.LittleEndian.Uint32(hdr[6:]))
	if n > limit {
		return 0, 0, fmt.Errorf("%w: declared payload %d over limit %d", ErrTooLarge, n, limit)
	}
	return kind, n, nil
}

// decodeBody dispatches a validated payload to its body decoder and
// requires it to consume the payload exactly, so decode∘encode is the
// identity on accepted frames.
func decodeBody(kind Kind, payload []byte) (Msg, error) {
	r := checkpoint.NewReader(payload)
	var m Msg
	switch kind {
	case KindJoin:
		m = readJoin(r)
	case KindWelcome:
		m = readWelcome(r)
	case KindUpdate:
		m = readUpdate(r)
	case KindGlobal:
		g := ReadGlobalBody(r)
		m = &g
	case KindSparseUpdate:
		m = readSparseUpdate(r)
	case KindSparseGlobal:
		m = readSparseGlobal(r)
	case KindRelayJoin:
		m = readRelayJoin(r)
	case KindPartialUpdate:
		m = readPartialUpdate(r)
	case KindResumeOffer:
		m = readResumeOffer(r)
	case KindSketch:
		m = readSketch(r)
	case KindSnapshot:
		m = readSnapshot(r)
	case KindDelta:
		m = readDelta(r)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %s body: %v", ErrCorrupt, kind, err)
	}
	return m, nil
}

// Decode reads the frame at the front of buf, returning the decoded
// message and the remaining bytes. io.EOF is returned on an empty buffer;
// every form of damage maps to a typed error. limit bounds the payload
// length (≤ 0 means MaxPayload).
func Decode(buf []byte, limit int) (Msg, []byte, error) {
	if len(buf) == 0 {
		return nil, nil, io.EOF
	}
	if len(buf) < headerLen+trailerLen {
		return nil, nil, fmt.Errorf("%w: %d-byte tail shorter than a frame", ErrCorrupt, len(buf))
	}
	kind, n, err := checkHeader(buf[:headerLen], limit)
	if err != nil {
		return nil, nil, err
	}
	if len(buf) < headerLen+n+trailerLen {
		return nil, nil, fmt.Errorf("%w: payload length %d overruns buffer", ErrCorrupt, n)
	}
	end := headerLen + n
	want := binary.LittleEndian.Uint32(buf[end:])
	if crc32.ChecksumIEEE(buf[:end]) != want {
		return nil, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	m, err := decodeBody(kind, buf[headerLen:end])
	if err != nil {
		return nil, nil, err
	}
	return m, buf[end+trailerLen:], nil
}

// ReadMsg reads exactly one frame from r and decodes it. limit bounds the
// declared payload length (≤ 0 means MaxPayload): an oversized header
// fails with ErrTooLarge before any payload is read or allocated, so a
// hostile peer cannot drive allocations past the caller's bound. An EOF
// before the first header byte is io.EOF (clean connection shutdown); a
// connection dying mid-frame surfaces as the underlying read error.
func ReadMsg(r io.Reader, limit int) (Msg, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
		}
		return nil, err
	}
	kind, n, err := checkHeader(hdr[:], limit)
	if err != nil {
		return nil, err
	}
	body := make([]byte, n+trailerLen)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: truncated frame", ErrCorrupt)
		}
		return nil, err
	}
	want := binary.LittleEndian.Uint32(body[n:])
	sum := crc32.ChecksumIEEE(hdr[:])
	sum = crc32.Update(sum, crc32.IEEETable, body[:n])
	if sum != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return decodeBody(kind, body[:n])
}
