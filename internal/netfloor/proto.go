// Package netfloor is the wire side of the distributed test floor: the
// site protocol, the remote tester Site, a fault-injecting net.Conn and
// the per-lot exactly-once Dispatcher. The coordinator that drives sites
// is internal/lotserver's Server. The design extends the determinism
// contract across the wire:
//
//   - assignments are keyed by (lot seed, device index) alone — a site
//     rebuilds the identical lot and engine from the shared engineering
//     seed, so the wire never carries a device, only its index;
//   - delivery is at-least-once (timeouts retry, reconnects re-send,
//     faulty transports duplicate), and screening is a deterministic pure
//     function of the key, so any two results for the same index agree;
//   - commit is exactly-once: a single collector dedups results by device
//     index before the fsync'd lotrun journal sees them.
//
// Together these make serial, local-concurrent, distributed and
// killed-and-resumed runs produce bit-identical bins under arbitrary
// message drop, duplication, corruption, delay and partition.
package netfloor

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/floor"
)

// ProtocolVersion is carried in every Hello; coordinator and site must
// match exactly. Version 2 made every Assign a batch (Envelope.Devices,
// even for one device); version 3 dropped the Hello's multi-lot flag, as
// every coordinator is the multi-lot lot server. An older peer is refused
// at the handshake.
const ProtocolVersion = 3

// maxFrame bounds one message on the wire. A corrupted length prefix is
// overwhelmingly likely to exceed it, turning bit rot into a clean
// connection reset instead of a multi-gigabyte allocation.
const maxFrame = 4 << 20

// MsgType tags the wire messages.
type MsgType string

const (
	// MsgHello opens a connection: the coordinator states the floor
	// identity (pool size, fault load, engine fingerprint) it screens.
	MsgHello MsgType = "hello"
	// MsgHelloAck accepts the Hello, echoing the identity and naming the
	// site.
	MsgHelloAck MsgType = "hello_ack"
	// MsgAssign asks the site to screen a batch of device indices of one
	// lot.
	MsgAssign MsgType = "assign"
	// MsgResult returns a screened DeviceResult.
	MsgResult MsgType = "result"
	// MsgHeartbeat is the liveness beacon either side sends while idle or
	// busy; it carries no payload and resets the receiver's idle timer.
	MsgHeartbeat MsgType = "heartbeat"
	// MsgDrain announces a graceful shutdown: no more assignments follow.
	MsgDrain MsgType = "drain"
	// MsgDrainAck confirms the drain; the site closes after sending it.
	MsgDrainAck MsgType = "drain_ack"
	// MsgError rejects the peer (identity mismatch, bad assignment).
	MsgError MsgType = "error"
	// MsgModelReq asks the coordinator for the calibration artifact of a
	// model version the site does not have cached (sent in response to an
	// Assign naming an unknown version).
	MsgModelReq MsgType = "model_req"
	// MsgModel delivers a serialized calibration artifact for one version.
	MsgModel MsgType = "model"
)

// Error codes carried in Envelope.Code alongside MsgError, so a peer can
// distinguish failure classes and react: a model mismatch needs an
// upgrade (fetch the right artifact, rebuild the engine), an identity
// mismatch is a misconfiguration, and anything uncoded is transport-level
// and retryable.
const (
	// CodeModelMismatch: the engines' calibration fingerprints disagree —
	// same board, same protocol, different screening semantics.
	CodeModelMismatch = "model_mismatch"
	// CodeIdentityMismatch: protocol version, device-pool size or fault
	// load disagree — the peers are not describing the same floor.
	CodeIdentityMismatch = "identity_mismatch"
	// CodeBadAssign: the site cannot serve an Assign — it names no
	// devices, or an index outside the lot.
	CodeBadAssign = "bad_assign"
)

// ErrModelMismatch is the typed form of a CodeModelMismatch rejection:
// the peer refused to pair because the calibration models differ. Callers
// detect it with errors.Is and react by upgrading (resolving the right
// model version) instead of retrying.
var ErrModelMismatch = errors.New("netfloor: calibration model mismatch")

// Hello is the floor identity both sides must agree on before any device
// is assigned: the engine fingerprint, fault load and device-pool size.
// Lot seeds are not part of it; each Assign names its own.
type Hello struct {
	Version     int     `json:"version"`
	Devices     int     `json:"devices"`
	FaultP      float64 `json:"fault_p"`
	Fingerprint uint64  `json:"fingerprint"`
}

// Envelope is the one wire message shape; Type selects which fields are
// meaningful.
type Envelope struct {
	Type   MsgType             `json:"type"`
	Seq    uint64              `json:"seq,omitempty"`
	Hello  *Hello              `json:"hello,omitempty"`
	Device int                 `json:"device"`
	Result *floor.DeviceResult `json:"result,omitempty"`
	Site   string              `json:"site,omitempty"`
	Err    string              `json:"err,omitempty"`
	// Seed is the assignment's lot seed and Lot its lot ID — set on
	// Assign/Result frames, zero otherwise.
	Seed int64  `json:"seed,omitempty"`
	Lot  string `json:"lot,omitempty"`
	// Code classifies a MsgError (see the Code* constants); empty on
	// legacy peers, which reads as "uncoded: treat as before".
	Code string `json:"code,omitempty"`
	// Model is the calibration version an Assign screens under (0 = the
	// base model pinned in the handshake) and the version a
	// MsgModelReq/MsgModel pair is fetching; ModelFP is the expected
	// engine fingerprint for that version, so a site can verify the
	// artifact it rebuilt screens identically.
	Model   int    `json:"model,omitempty"`
	ModelFP uint64 `json:"model_fp,omitempty"`
	// Artifact is the serialized calibration artifact on a MsgModel frame
	// (modelreg.EncodeArtifact bytes; frame CRC covers integrity).
	Artifact json.RawMessage `json:"artifact,omitempty"`
	// Devices is an Assign's batch: screen all of these indices through
	// the batched kernel and return one MsgResult per device (all tagged
	// with this frame's Seq, each naming its index in Device). Every
	// Assign carries it, even for one device.
	Devices []int `json:"devices,omitempty"`
	// Batch on a MsgHelloAck frame is the site's maximum devices per
	// assignment; a coordinator never sends a larger batch.
	Batch int `json:"batch,omitempty"`
}

// ErrCorruptFrame reports a frame whose payload CRC did not verify — the
// stream can no longer be trusted and the connection must be reset.
var ErrCorruptFrame = errors.New("netfloor: corrupt frame (payload CRC mismatch)")

// MsgConn frames messages over a net.Conn: a 4-byte big-endian payload
// length, a 4-byte IEEE CRC32 of the payload, then the JSON payload. Each
// frame goes out in a single Write, which keeps the fault-injecting
// transport's per-write faults aligned with whole messages (a dropped
// write is a lost message, a doubled write a duplicated one — exactly the
// failure modes a datagram network would produce).
//
// The frame layer is payload-agnostic (WriteFrame/ReadFrame), so other
// protocols — the lot server's client front door — ride the same framing
// and CRC discipline with their own envelope shapes.
type MsgConn struct {
	c net.Conn
	r *bufio.Reader

	wmu sync.Mutex
}

// NewMsgConn wraps a connection with the CRC framing.
func NewMsgConn(c net.Conn) *MsgConn {
	return &MsgConn{c: c, r: bufio.NewReader(c)}
}

// WriteFrame sends one raw payload frame; safe for concurrent use
// (heartbeat senders share the conn with the request path). writeTimeout
// bounds how long a stalled peer can block the sender (0 = no deadline).
func (m *MsgConn) WriteFrame(payload []byte, writeTimeout time.Duration) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("netfloor: frame of %d bytes exceeds %d", len(payload), maxFrame)
	}
	frame := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)

	m.wmu.Lock()
	defer m.wmu.Unlock()
	if writeTimeout > 0 {
		m.c.SetWriteDeadline(time.Now().Add(writeTimeout))
	}
	if _, err := m.c.Write(frame); err != nil {
		return fmt.Errorf("netfloor: write frame: %w", err)
	}
	return nil
}

// ReadFrame receives one raw payload frame, waiting at most idle for bytes
// to arrive — the liveness contract: a healthy peer heartbeats well inside
// idle, so an expired deadline means dead or partitioned, not slow.
func (m *MsgConn) ReadFrame(idle time.Duration) ([]byte, error) {
	if idle > 0 {
		m.c.SetReadDeadline(time.Now().Add(idle))
	}
	var hdr [8]byte
	if _, err := io.ReadFull(m.r, hdr[:]); err != nil {
		return nil, fmt.Errorf("netfloor: read frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > maxFrame {
		return nil, fmt.Errorf("netfloor: frame of %d bytes exceeds %d (corrupt length?)", n, maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(m.r, payload); err != nil {
		return nil, fmt.Errorf("netfloor: read frame payload: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[4:8]) {
		return nil, ErrCorruptFrame
	}
	return payload, nil
}

// Write sends one protocol envelope.
func (m *MsgConn) Write(env *Envelope, writeTimeout time.Duration) error {
	payload, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("netfloor: marshal %s: %w", env.Type, err)
	}
	if err := m.WriteFrame(payload, writeTimeout); err != nil {
		return fmt.Errorf("netfloor: %s: %w", env.Type, err)
	}
	return nil
}

// Read receives one protocol envelope.
func (m *MsgConn) Read(idle time.Duration) (*Envelope, error) {
	payload, err := m.ReadFrame(idle)
	if err != nil {
		return nil, err
	}
	var env Envelope
	if err := json.Unmarshal(payload, &env); err != nil {
		return nil, fmt.Errorf("netfloor: decode frame: %w", err)
	}
	return &env, nil
}

// Close closes the underlying connection.
func (m *MsgConn) Close() error { return m.c.Close() }
