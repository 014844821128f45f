// Package transport executes protocols over real TCP connections: every
// party runs as a client speaking length-delimited gob frames to a
// round-synchronizing host over the loopback interface, exercising the
// same Party machines as the in-memory engine.
//
// The host is the shared sim.Execution engine running on a remote
// PartyBackend: NewExecutionWithBackend → SetupPhase → Step per wire
// round → Finalize, with party machines living in the client processes
// instead of in the host's memory. Observers attached via SessionConfig
// therefore see the identical event stream an in-memory run produces.
//
// # Resilience layer
//
// Every session frame carries a per-direction sequence number and an
// FNV-1a checksum, and both endpoints keep an outbox of unacknowledged
// frames. When a connection breaks — a timeout, a reset, a corrupted
// frame — the client redials and performs a resume handshake
// (kindResume with its session token and last-delivered sequence
// number, answered by kindResumeAck), after which both sides replay
// their outboxes. Receivers deduplicate and reorder by sequence number,
// so a healed session delivers exactly the frame stream a fault-free
// session would have: the engine above the transport never notices, and
// outputs are byte-identical to an in-memory run.
//
// Faults the resume handshake cannot heal degrade gracefully instead of
// hanging: a peer that stays silent past the round timeout and does not
// resume within SessionConfig.ReconnectWait is declared dead within a
// 2×RoundTimeout budget, and the host converts it into the model's
// fail-stop abort via sim.Execution.FailStop. The run then completes
// with the survivors — the crashed party priced exactly like a
// corrupted party that aborted at the same round (see DESIGN.md, "Fault
// model and degradation").
//
// Deterministic chaos testing plugs in via SessionConfig.Fault: a
// faultinject.Injector is consulted on every sequenced frame's *first*
// transmission (replays after a resume bypass injection), so a chaos
// run is a pure function of (seed, schedule) and every transient fault
// is survivable by replay.
//
// The transport runs *honest* sessions — fairness is a property
// quantified against the model's adversary, not against packet loss.
// Any corruption against the remote backend fails with
// sim.ErrRemoteCorruption. Message payloads cross the wire gob-encoded,
// so protocol packages expose RegisterGobTypes helpers for their
// payload types.
package transport

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/sim"
)

// Codec serializes protocol message payloads.
type Codec interface {
	Encode(payload any) ([]byte, error)
	Decode(data []byte) (any, error)
}

// GobCodec encodes payloads with encoding/gob; concrete payload types
// must be registered (see the protocols' RegisterGobTypes helpers).
type GobCodec struct{}

var _ Codec = GobCodec{}

// payloadBox lets gob carry the payload interface.
type payloadBox struct {
	V any
}

// Encode implements Codec.
func (GobCodec) Encode(payload any) ([]byte, error) {
	var buf writeBuffer
	if err := gob.NewEncoder(&buf).Encode(payloadBox{V: payload}); err != nil {
		return nil, fmt.Errorf("transport: encode payload: %w", err)
	}
	return buf.data, nil
}

// Decode implements Codec.
func (GobCodec) Decode(data []byte) (any, error) {
	var box payloadBox
	if err := gob.NewDecoder(&readBuffer{data: data}).Decode(&box); err != nil {
		return nil, fmt.Errorf("transport: decode payload: %w", err)
	}
	return box.V, nil
}

type writeBuffer struct{ data []byte }

func (w *writeBuffer) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

type readBuffer struct {
	data []byte
	off  int
}

func (r *readBuffer) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// frame kinds.
type frameKind int

const (
	kindHello frameKind = iota + 1
	kindSetup
	kindInbox
	kindBatch
	kindOutput
	// kindWelcome answers a hello with the peer's session token.
	kindWelcome
	// kindResume reopens a broken session: ID, Token, Ack = last
	// sequence number the client delivered.
	kindResume
	// kindResumeAck confirms a resume: Ack = last sequence number the
	// host delivered. Both sides then replay their outboxes.
	kindResumeAck
	// kindBye acknowledges a party's output frame; the client stays
	// connected until it arrives so a lost output heals via replay.
	kindBye
)

// wireMsg is a serialized sim.Message.
type wireMsg struct {
	From, To int
	Payload  []byte
}

// frame is the session wire unit. Sequenced frames (setup, inbox,
// batch, output, bye) carry Seq >= 1 and a checksum; handshake frames
// (hello, welcome, resume, resumeAck) travel with Seq 0 outside the
// reliable layer.
type frame struct {
	Kind         frameKind
	ID           int // hello/resume: party id
	Round        int
	Msgs         []wireMsg
	SetupOut     []byte
	SetupAborted bool
	HasSetup     bool
	Seed         int64 // setup: the party's engine-drawn RNG seed
	Output       []byte
	OutputOK     bool
	Seq          uint64 // per-direction reliable sequence number
	Token        uint64 // welcome/resume: session token
	Ack          uint64 // resume/resumeAck: last delivered sequence
	Sum          uint32 // FNV-1a checksum of the sequenced frame
}

// frameSum hashes every content field of a sequenced frame (Sum
// excluded) so receivers detect corruption before gob-decoding payloads.
func frameSum(f *frame) uint32 {
	h := fnv.New32a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		_, _ = h.Write(b[:])
	}
	put(uint64(f.Kind))
	put(uint64(int64(f.ID)))
	put(uint64(int64(f.Round)))
	put(f.Seq)
	put(f.Token)
	put(f.Ack)
	put(uint64(f.Seed))
	var flags uint64
	if f.SetupAborted {
		flags |= 1
	}
	if f.HasSetup {
		flags |= 2
	}
	if f.OutputOK {
		flags |= 4
	}
	put(flags)
	put(uint64(len(f.SetupOut)))
	_, _ = h.Write(f.SetupOut)
	put(uint64(len(f.Output)))
	_, _ = h.Write(f.Output)
	for _, m := range f.Msgs {
		put(uint64(int64(m.From)))
		put(uint64(int64(m.To)))
		put(uint64(len(m.Payload)))
		_, _ = h.Write(m.Payload)
	}
	return h.Sum32()
}

func checkSum(f *frame) bool {
	want := f.Sum
	f.Sum = 0
	ok := frameSum(f) == want
	f.Sum = want
	return ok
}

// corruptFrame returns a copy of f with payload bytes flipped *after*
// the checksum was computed, modeling on-the-wire corruption the
// receiver must detect. Slices are copied so the outbox keeps the
// pristine frame for replay.
func corruptFrame(f frame) frame {
	flip := func(b []byte) []byte {
		c := append([]byte(nil), b...)
		c[0] ^= 0xff
		return c
	}
	switch {
	case len(f.Msgs) > 0 && len(f.Msgs[0].Payload) > 0:
		msgs := append([]wireMsg(nil), f.Msgs...)
		msgs[0].Payload = flip(msgs[0].Payload)
		f.Msgs = msgs
	case len(f.Output) > 0:
		f.Output = flip(f.Output)
	case len(f.SetupOut) > 0:
		f.SetupOut = flip(f.SetupOut)
	default:
		f.Sum ^= 0xdeadbeef
	}
	return f
}

// DefaultRoundTimeout bounds every read/write on the loopback sockets
// when SessionConfig.RoundTimeout is zero. Each wire round resets the
// deadline, so it is a per-frame stall bound, not a whole-session one.
const DefaultRoundTimeout = 30 * time.Second

// DefaultDialAttempts bounds the client's connect/reconnect retry loop
// when SessionConfig.DialAttempts is zero.
const DefaultDialAttempts = 4

// DefaultMaxResumes bounds how many resume handshakes the host grants
// one peer when SessionConfig.MaxResumes is zero.
const DefaultMaxResumes = 8

// SessionConfig tunes a TCP session.
type SessionConfig struct {
	// Codec serializes payloads; nil means GobCodec{}.
	Codec Codec
	// RoundTimeout is the per-frame read/write deadline on every socket;
	// zero means DefaultRoundTimeout. Every host receive carries an
	// absolute recovery budget of 2×RoundTimeout: a peer that cannot be
	// healed inside it is declared dead and fail-stopped, so a faulty
	// session terminates within the budget instead of hanging.
	RoundTimeout time.Duration
	// Observers receive the engine's event stream for the hosted run,
	// exactly as an in-memory sim.RunObserved would deliver it.
	// Observers that also implement sim.FailStopObserver additionally
	// see fail-stop abort events.
	Observers []sim.Observer
	// Fault, when non-nil, is consulted on every sequenced frame's
	// first transmission (never on resume replays). See faultinject.
	Fault faultinject.Injector
	// AcceptTimeout bounds the accept phase: if some party has not
	// completed its hello handshake within it, the session fails with
	// an error naming the missing parties. Zero means RoundTimeout.
	AcceptTimeout time.Duration
	// DialTimeout bounds each client dial attempt; zero means
	// RoundTimeout.
	DialTimeout time.Duration
	// DialAttempts bounds the client's connect/reconnect retry loop
	// (exponential backoff between attempts); zero means
	// DefaultDialAttempts.
	DialAttempts int
	// ReconnectWait is how long the host waits for a broken peer to
	// resume before declaring it dead; zero means RoundTimeout/2.
	ReconnectWait time.Duration
	// MaxResumes bounds resume handshakes granted per peer; zero means
	// DefaultMaxResumes.
	MaxResumes int
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.Codec == nil {
		c.Codec = GobCodec{}
	}
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = DefaultRoundTimeout
	}
	if c.AcceptTimeout <= 0 {
		c.AcceptTimeout = c.RoundTimeout
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = c.RoundTimeout
	}
	if c.DialAttempts <= 0 {
		c.DialAttempts = DefaultDialAttempts
	}
	if c.ReconnectWait <= 0 {
		c.ReconnectWait = c.RoundTimeout / 2
	}
	if c.MaxResumes <= 0 {
		c.MaxResumes = DefaultMaxResumes
	}
	return c
}

// SessionReport is the full result of a chaos-tolerant session: the
// surviving parties' outputs, the finished trace, and the degradation
// record.
type SessionReport struct {
	// Outputs holds the surviving (non-fail-stopped) parties' outputs.
	Outputs map[sim.PartyID]sim.OutputRecord
	// Trace is the finished engine trace (FailStops included).
	Trace *sim.Trace
	// FailStops records the parties the session lost, with the wire
	// round and canonical cause of each loss (aliases Trace.FailStops).
	FailStops map[sim.PartyID]sim.FailStopInfo
	// Resumes counts successful reconnect/resume handshakes across all
	// peers — zero in a fault-free session.
	Resumes int
	// ClientErrors records per-party client-side errors. Errors of
	// fail-stopped parties are expected (the party crashed or was cut
	// off); an error from a surviving party fails the session instead.
	ClientErrors map[sim.PartyID]string
}

var (
	errNoResume = errors.New("transport: peer did not resume")
	errBudget   = errors.New("transport: recovery budget exhausted")
)

// ErrKilled is the client-side sentinel for a faultinject.Kill decision:
// the sending endpoint "crashes" by closing its connection and
// abandoning the run.
var ErrKilled = errors.New("transport: party killed by fault injection")

// causeOf canonicalizes an I/O error into a deterministic fail-stop
// cause: every flavor of connection teardown (EOF, ECONNRESET, use of
// closed connection) reads "connection lost", and every deadline
// expiry reads "stall (round timeout)", so chaos verdicts are stable
// across runs and platforms.
func causeOf(err error) string {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return "stall (round timeout)"
	}
	return "connection lost"
}

func writeFrame(conn net.Conn, enc *gob.Encoder, timeout time.Duration, f frame) error {
	if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	return enc.Encode(f)
}

func readFrame(conn net.Conn, dec *gob.Decoder, timeout time.Duration, f *frame) error {
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	return dec.Decode(f)
}

// endpoint is one end of a reliable frame stream: it assigns sequence
// numbers, buffers unacknowledged frames for replay, deduplicates and
// reorders received frames, and survives connection swaps (resume
// installs a fresh conn under mu and bumps gen so stale I/O errors from
// the old conn cannot poison the new one).
type endpoint struct {
	party    int                   // client party id of this connection
	dir      faultinject.Direction // direction of frames this endpoint sends
	timeout  time.Duration
	fault    faultinject.Injector
	hostSide bool

	mu        sync.Mutex
	conn      net.Conn
	enc       *gob.Encoder
	dec       *gob.Decoder
	gen       int
	broken    bool
	lastCause string

	sendSeq  uint64
	outbox   []frame // sent frames the peer has not acknowledged
	lastRecv uint64  // highest sequence delivered upward, in order
	pending  map[uint64]frame
	held     []frame // frames held back by a Reorder decision

	wmu sync.Mutex // serializes writes on the current conn
}

func (ep *endpoint) install(conn net.Conn, enc *gob.Encoder, dec *gob.Decoder) {
	ep.mu.Lock()
	if ep.conn != nil {
		_ = ep.conn.Close()
	}
	ep.conn, ep.enc, ep.dec = conn, enc, dec
	ep.gen++
	ep.broken = false
	ep.mu.Unlock()
}

// breakGen poisons the connection of generation gen; a resume that
// already installed a newer conn makes it a no-op.
func (ep *endpoint) breakGen(gen int, cause string) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.gen != gen || ep.broken {
		return
	}
	ep.broken = true
	ep.lastCause = cause
	if ep.conn != nil {
		_ = ep.conn.Close()
	}
}

// breakAll poisons whatever connection is current (sender-side faults).
func (ep *endpoint) breakAll(cause string) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.broken {
		return
	}
	ep.broken = true
	ep.lastCause = cause
	if ep.conn != nil {
		_ = ep.conn.Close()
	}
}

func (ep *endpoint) close() {
	ep.mu.Lock()
	if ep.conn != nil {
		_ = ep.conn.Close()
	}
	ep.mu.Unlock()
}

// writeCurrent writes one frame on the current conn, best-effort: a
// write failure poisons the conn and recovery happens on the receive
// path (the peer's stall triggers a resume, and the outbox replays).
func (ep *endpoint) writeCurrent(f frame) {
	ep.wmu.Lock()
	defer ep.wmu.Unlock()
	ep.mu.Lock()
	conn, enc, gen, broken := ep.conn, ep.enc, ep.gen, ep.broken
	ep.mu.Unlock()
	if broken || conn == nil {
		return
	}
	if err := writeFrame(conn, enc, ep.timeout, f); err != nil {
		ep.breakGen(gen, causeOf(err))
	}
}

// sendReliable assigns the next sequence number, checksums the frame,
// appends it to the outbox, and transmits it — subject to the fault
// injector, which is consulted only here, on first transmission.
// The only possible error is ErrKilled on client endpoints.
func (ep *endpoint) sendReliable(f frame) error {
	ep.mu.Lock()
	ep.sendSeq++
	f.Seq = ep.sendSeq
	f.Sum = 0
	f.Sum = frameSum(&f)
	ep.outbox = append(ep.outbox, f)
	held := ep.held
	ep.held = nil
	ep.mu.Unlock()

	var d faultinject.Decision
	if ep.fault != nil {
		d = ep.fault.Decide(faultinject.Point{Party: ep.party, Dir: ep.dir, Seq: f.Seq, Round: f.Round})
	}
	if d.Op == faultinject.Kill && ep.hostSide {
		d.Op = faultinject.Disconnect
	}

	switch d.Op {
	case faultinject.Drop:
		// First transmission suppressed; resume replay heals it.
	case faultinject.Delay:
		time.Sleep(d.Delay)
		ep.writeCurrent(f)
	case faultinject.Duplicate:
		ep.writeCurrent(f)
		ep.writeCurrent(f)
	case faultinject.Reorder:
		ep.mu.Lock()
		ep.held = append(ep.held, f)
		ep.mu.Unlock()
	case faultinject.Corrupt:
		ep.writeCurrent(corruptFrame(f))
	case faultinject.Disconnect:
		ep.writeCurrent(f)
		ep.breakAll("connection lost")
	case faultinject.Kill:
		ep.breakAll("connection lost")
		return ErrKilled
	default:
		ep.writeCurrent(f)
	}
	// Frames held back by an earlier Reorder decision follow the
	// current frame; the receiver's sequence buffer restores order.
	for _, h := range held {
		ep.writeCurrent(h)
	}
	return nil
}

// ackSeq is the cumulative ack this endpoint advertises on resume.
func (ep *endpoint) ackSeq() uint64 {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.lastRecv
}

// trimOutbox drops frames the peer acknowledged.
func (ep *endpoint) trimOutbox(ack uint64) {
	ep.mu.Lock()
	i := 0
	for i < len(ep.outbox) && ep.outbox[i].Seq <= ack {
		i++
	}
	ep.outbox = append([]frame(nil), ep.outbox[i:]...)
	ep.mu.Unlock()
}

// replayList snapshots the unacknowledged outbox for retransmission.
func (ep *endpoint) replayList() []frame {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return append([]frame(nil), ep.outbox...)
}

// recvReliable returns the next in-order sequenced frame, healing the
// stream as needed: duplicates are discarded, reordered frames are
// buffered until the gap fills, corrupt frames and I/O errors poison
// the conn, and recover is invoked to re-establish it (host: wait for
// the peer's resume; client: redial and resume). The absolute deadline
// bounds the whole operation, recovery included.
func (ep *endpoint) recvReliable(deadline time.Time, recover func(time.Time) error) (frame, error) {
	for {
		ep.mu.Lock()
		if f, ok := ep.pending[ep.lastRecv+1]; ok {
			delete(ep.pending, ep.lastRecv+1)
			ep.lastRecv++
			ep.mu.Unlock()
			return f, nil
		}
		conn, dec, gen, broken := ep.conn, ep.dec, ep.gen, ep.broken
		ep.mu.Unlock()

		if broken || conn == nil {
			if time.Now().After(deadline) {
				return frame{}, errBudget
			}
			if err := recover(deadline); err != nil {
				return frame{}, err
			}
			continue
		}

		rem := time.Until(deadline)
		if rem <= 0 {
			return frame{}, errBudget
		}
		to := ep.timeout
		if rem < to {
			to = rem
		}
		_ = conn.SetReadDeadline(time.Now().Add(to))
		var f frame
		if err := dec.Decode(&f); err != nil {
			// A mid-frame deadline leaves the gob stream unframed, so
			// every decode error forces a reconnect.
			ep.breakGen(gen, causeOf(err))
			continue
		}
		if f.Seq == 0 {
			continue // stray handshake frame; not part of the stream
		}
		if !checkSum(&f) {
			ep.breakGen(gen, "corrupt frame")
			continue
		}
		ep.mu.Lock()
		switch {
		case f.Seq <= ep.lastRecv:
			ep.mu.Unlock() // duplicate of a delivered frame
		case f.Seq == ep.lastRecv+1:
			ep.lastRecv++
			ep.mu.Unlock()
			return f, nil
		default:
			ep.pending[f.Seq] = f // ahead of a gap; buffer it
			ep.mu.Unlock()
		}
	}
}

// hostPeer is the host's reliable endpoint for one party, plus the
// degradation state the engine reads (dead/round/cause) and the resume
// plumbing the accept manager drives.
type hostPeer struct {
	endpoint
	id            sim.PartyID
	token         uint64
	reconnectWait time.Duration
	maxResumes    int

	resumed chan struct{} // signaled by handleResume

	// resumes, dead, deadRound, deadCause, reported are guarded by
	// endpoint.mu.
	resumes   int
	dead      bool
	deadRound int
	deadCause string
	reported  bool // FailStop already applied to the engine
}

func newHostPeer(id sim.PartyID, token uint64, cfg SessionConfig) *hostPeer {
	return &hostPeer{
		endpoint: endpoint{
			party:    int(id),
			dir:      faultinject.DirHostToClient,
			timeout:  cfg.RoundTimeout,
			fault:    cfg.Fault,
			hostSide: true,
			pending:  make(map[uint64]frame),
		},
		id:            id,
		token:         token,
		reconnectWait: cfg.ReconnectWait,
		maxResumes:    cfg.MaxResumes,
		resumed:       make(chan struct{}, 1),
	}
}

// handleResume (accept-manager side) adopts a fresh connection for a
// broken peer: install it, trim the outbox by the client's ack, answer
// with our own ack, and replay everything the client is missing.
func (p *hostPeer) handleResume(conn net.Conn, enc *gob.Encoder, dec *gob.Decoder, clientAck uint64) {
	p.mu.Lock()
	if p.dead || p.resumes >= p.maxResumes {
		p.mu.Unlock()
		_ = conn.Close()
		return
	}
	p.resumes++
	if p.conn != nil {
		_ = p.conn.Close()
	}
	p.conn, p.enc, p.dec = conn, enc, dec
	p.gen++
	p.broken = false
	i := 0
	for i < len(p.outbox) && p.outbox[i].Seq <= clientAck {
		i++
	}
	p.outbox = append([]frame(nil), p.outbox[i:]...)
	replay := append([]frame(nil), p.outbox...)
	ack := p.lastRecv
	p.mu.Unlock()

	p.wmu.Lock()
	if writeFrame(conn, enc, p.timeout, frame{Kind: kindResumeAck, Ack: ack}) == nil {
		for _, f := range replay {
			if writeFrame(conn, enc, p.timeout, f) != nil {
				break
			}
		}
	}
	p.wmu.Unlock()

	select {
	case p.resumed <- struct{}{}:
	default:
	}
}

// awaitResume is the host's recovery step: wait up to ReconnectWait
// (capped by the op deadline) for the accept manager to install a
// resumed connection. Expiry means the peer is gone for good.
func (p *hostPeer) awaitResume(deadline time.Time) error {
	wait := p.reconnectWait
	if rem := time.Until(deadline); rem < wait {
		wait = rem
	}
	if wait <= 0 {
		return errNoResume
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		p.mu.Lock()
		broken := p.broken
		p.mu.Unlock()
		if !broken {
			return nil
		}
		select {
		case <-p.resumed:
		case <-timer.C:
			return errNoResume
		}
	}
}

// recvHost receives the peer's next sequenced frame under the session's
// recovery budget: 2×RoundTimeout, resume waits included.
func (p *hostPeer) recvHost() (frame, error) {
	deadline := time.Now().Add(2 * p.timeout)
	return p.recvReliable(deadline, p.awaitResume)
}

func (p *hostPeer) markDead(round int, cause string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return
	}
	p.dead = true
	p.deadRound = round
	p.deadCause = cause
	p.broken = true
	if p.conn != nil {
		_ = p.conn.Close()
	}
}

func (p *hostPeer) isDead() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dead
}

// deathCause canonicalizes the terminal receive error into the
// fail-stop cause recorded in the trace.
func (p *hostPeer) deathCause(err error) string {
	p.mu.Lock()
	last := p.lastCause
	p.mu.Unlock()
	if last == "" {
		last = "connection lost"
	}
	switch {
	case errors.Is(err, errNoResume):
		return fmt.Sprintf("%s; no resume within %v", last, p.reconnectWait)
	case errors.Is(err, errBudget):
		return last + "; recovery budget exhausted"
	default:
		return last
	}
}

// sessionToken derives a peer's resume token deterministically from the
// session seed (splitmix64 finalizer), so chaos runs replay exactly.
func sessionToken(seed int64, id sim.PartyID) uint64 {
	z := uint64(seed) ^ 0x7f4a7c15<<32 ^ uint64(id)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// helloConn is a fresh connection that completed its hello.
type helloConn struct {
	id   sim.PartyID
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// acceptManager owns the listener for a session's lifetime: during the
// accept phase it feeds hello connections to the host, and for the rest
// of the session it routes resume handshakes to the broken peer they
// belong to.
type acceptManager struct {
	ln      net.Listener
	n       int
	timeout time.Duration

	mu    sync.Mutex
	peers map[sim.PartyID]*hostPeer // set once the accept phase completes

	helloCh chan helloConn
}

func newAcceptManager(ln net.Listener, n int, cfg SessionConfig) *acceptManager {
	return &acceptManager{ln: ln, n: n, timeout: cfg.RoundTimeout, helloCh: make(chan helloConn, 4*n)}
}

// run accepts connections until the listener closes.
func (am *acceptManager) run() {
	for {
		conn, err := am.ln.Accept()
		if err != nil {
			return
		}
		go am.handle(conn)
	}
}

func (am *acceptManager) handle(conn net.Conn) {
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	var f frame
	if err := readFrame(conn, dec, am.timeout, &f); err != nil {
		_ = conn.Close()
		return
	}
	switch f.Kind {
	case kindHello:
		if f.ID < 1 || f.ID > am.n {
			_ = conn.Close()
			return
		}
		select {
		case am.helloCh <- helloConn{id: sim.PartyID(f.ID), conn: conn, enc: enc, dec: dec}:
		default:
			_ = conn.Close() // accept phase over
		}
	case kindResume:
		am.mu.Lock()
		p := am.peers[sim.PartyID(f.ID)]
		am.mu.Unlock()
		if p == nil || f.Token != p.token {
			_ = conn.Close()
			return
		}
		p.handleResume(conn, enc, dec, f.Ack)
	default:
		_ = conn.Close()
	}
}

// acceptPhase collects the n party hellos within cfg.AcceptTimeout,
// answering each with a welcome carrying its session token. A client
// whose welcome was lost redials and re-hellos; the fresh connection
// replaces the stale one. On expiry the error names every party that
// never completed the handshake.
func (am *acceptManager) acceptPhase(seed int64, cfg SessionConfig) (map[sim.PartyID]*hostPeer, error) {
	peers := make(map[sim.PartyID]*hostPeer, am.n)
	timer := time.NewTimer(cfg.AcceptTimeout)
	defer timer.Stop()
	for len(peers) < am.n {
		select {
		case h := <-am.helloCh:
			p, dup := peers[h.id]
			if !dup {
				p = newHostPeer(h.id, sessionToken(seed, h.id), cfg)
				peers[h.id] = p
			}
			p.install(h.conn, h.enc, h.dec)
			p.wmu.Lock()
			if err := writeFrame(h.conn, h.enc, cfg.RoundTimeout, frame{Kind: kindWelcome, Token: p.token}); err != nil {
				p.breakAll(causeOf(err)) // client will redial its hello
			}
			p.wmu.Unlock()
		case <-timer.C:
			var missing []int
			for i := 1; i <= am.n; i++ {
				if _, ok := peers[sim.PartyID(i)]; !ok {
					missing = append(missing, i)
				}
			}
			sort.Ints(missing)
			return nil, fmt.Errorf("transport: accept phase timed out after %v: parties %v never connected",
				cfg.AcceptTimeout, missing)
		}
	}
	am.mu.Lock()
	am.peers = peers
	am.mu.Unlock()
	return peers, nil
}

// RunSession executes one honest run of proto over loopback TCP with the
// default round timeout. It returns every party's output.
func RunSession(proto sim.Protocol, inputs []sim.Value, codec Codec, seed int64) (map[sim.PartyID]sim.OutputRecord, error) {
	return RunSessionConfig(proto, inputs, seed, SessionConfig{Codec: codec})
}

// RunSessionConfig executes one honest run of proto over loopback TCP
// and returns every party's output. It requires a fully surviving
// session: a run degraded by fail-stops returns an error (use
// RunSessionReport to observe degradation instead).
func RunSessionConfig(proto sim.Protocol, inputs []sim.Value, seed int64, cfg SessionConfig) (map[sim.PartyID]sim.OutputRecord, error) {
	rep, err := RunSessionReport(proto, inputs, seed, cfg)
	if err != nil {
		return nil, err
	}
	if len(rep.FailStops) > 0 {
		var ids []int
		for id := range rep.FailStops {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		return nil, fmt.Errorf("transport: session degraded: parties %v fail-stopped", ids)
	}
	return rep.Outputs, nil
}

// RunSessionReport executes one run of proto over loopback TCP — each
// party a TCP client, the host driving the shared sim.Execution phases
// against the remote machines — and reports the outcome, fail-stop
// degradation included. Transient connection faults heal via the
// reconnect/resume handshake with outputs byte-identical to a
// fault-free run; unrecoverable peers terminate within the recovery
// budget as fail-stop aborts rather than errors.
func RunSessionReport(proto sim.Protocol, inputs []sim.Value, seed int64, cfg SessionConfig) (*SessionReport, error) {
	cfg = cfg.withDefaults()
	n := proto.NumParties()
	if len(inputs) != n {
		return nil, fmt.Errorf("transport: %d inputs for %d parties", len(inputs), n)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	defer func() { _ = ln.Close() }()

	// Launch the party clients. Their machine RNG seeds arrive in the
	// setup frame, drawn by the engine from the session's master seed.
	var wg sync.WaitGroup
	clientErrs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			clientErrs[idx] = runClient(ln.Addr().String(), proto, sim.PartyID(idx+1), inputs[idx], cfg)
		}(i)
	}

	rep, hostErr := hostSessionReport(ln, proto, inputs, seed, cfg)
	wg.Wait()
	if hostErr != nil {
		return nil, hostErr
	}
	rep.ClientErrors = make(map[sim.PartyID]string)
	for i, cerr := range clientErrs {
		if cerr == nil {
			continue
		}
		id := sim.PartyID(i + 1)
		rep.ClientErrors[id] = cerr.Error()
		if _, stopped := rep.FailStops[id]; !stopped {
			// A surviving party's client failed even though the host
			// completed with it: that is a transport defect, not
			// degradation.
			return nil, fmt.Errorf("transport: party %d: %w", i+1, cerr)
		}
	}
	return rep, nil
}

// hostSessionReport accepts the party connections and drives the shared
// execution engine over them, degrading unrecoverable peers into
// fail-stop aborts between engine steps.
func hostSessionReport(ln net.Listener, proto sim.Protocol, inputs []sim.Value, seed int64, cfg SessionConfig) (*SessionReport, error) {
	cfg = cfg.withDefaults()
	n := proto.NumParties()
	am := newAcceptManager(ln, n, cfg)
	go am.run()

	peers, err := am.acceptPhase(seed, cfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, p := range peers {
			p.close()
		}
	}()

	backend := &remoteBackend{peers: peers, codec: cfg.Codec, inputs: inputs}
	e, err := sim.NewExecutionWithBackend(proto, inputs, sim.Passive{}, seed, backend, cfg.Observers...)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	// reportDead converts peers newly declared dead into the engine's
	// fail-stop abort, ascending id for deterministic event order.
	reportDead := func() error {
		for i := 1; i <= n; i++ {
			p := peers[sim.PartyID(i)]
			p.mu.Lock()
			fire := p.dead && !p.reported
			round, cause := p.deadRound, p.deadCause
			if fire {
				p.reported = true
			}
			p.mu.Unlock()
			if fire {
				if err := e.FailStop(sim.PartyID(i), round, cause); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := e.SetupPhase(); err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	for r := 1; r <= e.TotalRounds(); r++ {
		if err := e.Step(r); err != nil {
			return nil, fmt.Errorf("transport: %w", err)
		}
		if err := reportDead(); err != nil {
			return nil, fmt.Errorf("transport: %w", err)
		}
	}
	// Prefetch outputs before Finalize so output-phase losses degrade
	// into fail-stops too instead of erroring out of Finalize.
	if err := backend.collectOutputs(e.TotalRounds()); err != nil {
		return nil, err
	}
	if err := reportDead(); err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	tr, err := e.Finalize()
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	resumes := 0
	for _, p := range peers {
		p.mu.Lock()
		resumes += p.resumes
		p.mu.Unlock()
	}
	return &SessionReport{
		Outputs:   tr.HonestOutputs,
		Trace:     tr,
		FailStops: tr.FailStops,
		Resumes:   resumes,
	}, nil
}

// remoteBackend is the sim.PartyBackend whose machines live in remote
// party processes: StartParty ships the setup frame, PartyRound trades
// one inbox frame for one batch frame, PartyOutput serves the output
// prefetched by collectOutputs. Machine returns nil — remote sessions
// are honest-only. A dead peer behaves like a silent party (empty
// batches) until the host converts it into a fail-stop abort.
type remoteBackend struct {
	peers   map[sim.PartyID]*hostPeer
	codec   Codec
	inputs  []sim.Value // session inputs; clients already hold their own
	outputs map[sim.PartyID]sim.OutputRecord
}

var _ sim.PartyBackend = (*remoteBackend)(nil)

// StartParty implements sim.PartyBackend. The client keeps its own
// input, so only the setup output, abort flag, and RNG seed cross the
// wire; an input differing from the client's (adversarial substitution)
// is refused — the transport runs honest sessions only.
func (b *remoteBackend) StartParty(id sim.PartyID, input sim.Value, setupOut sim.Value, setupAborted bool, seed int64) error {
	if !sim.ValuesEqual(input, b.inputs[id-1]) {
		return fmt.Errorf("transport: party %d input substituted (%v != %v): %w",
			id, input, b.inputs[id-1], sim.ErrRemoteCorruption)
	}
	sf := frame{Kind: kindSetup, Round: 0, SetupAborted: setupAborted, Seed: seed}
	if setupOut != nil {
		data, err := b.codec.Encode(setupOut)
		if err != nil {
			return err
		}
		sf.SetupOut, sf.HasSetup = data, true
	}
	// Best-effort: a lost setup frame heals via resume replay when the
	// client's stall forces a reconnect.
	_ = b.peers[id].sendReliable(sf)
	return nil
}

// PartyRound implements sim.PartyBackend: one inbox frame out, one
// batch frame back. An unrecoverable peer is marked dead and returns an
// empty batch — the engine sees a silent party until the host applies
// the fail-stop after this step.
func (b *remoteBackend) PartyRound(id sim.PartyID, round int, inbox []sim.Message) ([]sim.Message, error) {
	p := b.peers[id]
	if p.isDead() {
		return nil, nil
	}
	inf := frame{Kind: kindInbox, Round: round}
	for _, m := range inbox {
		data, err := b.codec.Encode(m.Payload)
		if err != nil {
			return nil, err
		}
		inf.Msgs = append(inf.Msgs, wireMsg{From: int(m.From), To: int(m.To), Payload: data})
	}
	_ = p.sendReliable(inf)
	batch, err := p.recvHost()
	if err != nil {
		p.markDead(round, p.deathCause(err))
		return nil, nil
	}
	if batch.Kind != kindBatch || batch.Round != round {
		p.markDead(round, fmt.Sprintf("protocol violation: unexpected %v/r%d frame", batch.Kind, batch.Round))
		return nil, nil
	}
	out := make([]sim.Message, 0, len(batch.Msgs))
	for _, m := range batch.Msgs {
		payload, err := b.codec.Decode(m.Payload)
		if err != nil {
			return nil, fmt.Errorf("transport: round %d payload from %d: %w", round, id, err)
		}
		// The channel authenticates the sender; the engine restamps From.
		out = append(out, sim.Message{From: id, To: sim.PartyID(m.To), Payload: payload})
	}
	return out, nil
}

// collectOutputs prefetches every surviving peer's output frame (and
// acknowledges it with a bye so the client may exit), marking peers
// that cannot deliver one as dead.
func (b *remoteBackend) collectOutputs(totalRounds int) error {
	b.outputs = make(map[sim.PartyID]sim.OutputRecord, len(b.peers))
	for i := 1; i <= len(b.peers); i++ {
		id := sim.PartyID(i)
		p := b.peers[id]
		if p.isDead() {
			continue
		}
		of, err := p.recvHost()
		if err != nil {
			p.markDead(totalRounds, p.deathCause(err))
			continue
		}
		if of.Kind != kindOutput {
			p.markDead(totalRounds, fmt.Sprintf("protocol violation: unexpected %v frame", of.Kind))
			continue
		}
		rec := sim.OutputRecord{OK: of.OutputOK}
		if of.OutputOK {
			v, err := b.codec.Decode(of.Output)
			if err != nil {
				return fmt.Errorf("transport: output from %d: %w", id, err)
			}
			rec.Value = v
		}
		b.outputs[id] = rec
		_ = p.sendReliable(frame{Kind: kindBye, Round: totalRounds + 1})
	}
	return nil
}

// PartyOutput implements sim.PartyBackend, serving the prefetched
// output (fail-stopped parties are never asked).
func (b *remoteBackend) PartyOutput(id sim.PartyID) (sim.OutputRecord, error) {
	rec, ok := b.outputs[id]
	if !ok {
		return sim.OutputRecord{}, fmt.Errorf("transport: no output collected from %d", id)
	}
	return rec, nil
}

// Machine implements sim.PartyBackend: remote machines cannot be handed
// over, so corruption attempts fail with sim.ErrRemoteCorruption.
func (b *remoteBackend) Machine(sim.PartyID) sim.Party { return nil }

// AuditInfo implements sim.PartyBackend: remote machines do not expose
// audit state to the host.
func (b *remoteBackend) AuditInfo(sim.PartyID) (sim.Value, bool) { return nil, false }

// clientPeer is one party's reliable endpoint: it dials with bounded
// retry, and on a broken connection redials and resumes with the
// session token.
type clientPeer struct {
	endpoint
	addr         string
	id           sim.PartyID
	token        uint64
	dialTimeout  time.Duration
	dialAttempts int
	nParties     int
}

func newClientPeer(addr string, id sim.PartyID, nParties int, cfg SessionConfig) *clientPeer {
	return &clientPeer{
		endpoint: endpoint{
			party:   int(id),
			dir:     faultinject.DirClientToHost,
			timeout: cfg.RoundTimeout,
			fault:   cfg.Fault,
			pending: make(map[uint64]frame),
		},
		addr:         addr,
		id:           id,
		dialTimeout:  cfg.DialTimeout,
		dialAttempts: cfg.DialAttempts,
		nParties:     nParties,
	}
}

// dialRetry runs one handshake attempt per dial, with exponential
// backoff between attempts.
func (c *clientPeer) dialRetry(attempt func(conn net.Conn, enc *gob.Encoder, dec *gob.Decoder) error) error {
	backoff := 20 * time.Millisecond
	var lastErr error
	for i := 0; i < c.dialAttempts; i++ {
		if i > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		if err := attempt(conn, gob.NewEncoder(conn), gob.NewDecoder(conn)); err != nil {
			_ = conn.Close()
			lastErr = err
			continue
		}
		return nil
	}
	return fmt.Errorf("dial %s after %d attempts: %w", c.addr, c.dialAttempts, lastErr)
}

// connect performs the initial hello/welcome handshake.
func (c *clientPeer) connect() error {
	return c.dialRetry(func(conn net.Conn, enc *gob.Encoder, dec *gob.Decoder) error {
		if err := writeFrame(conn, enc, c.timeout, frame{Kind: kindHello, ID: int(c.id)}); err != nil {
			return err
		}
		var w frame
		if err := readFrame(conn, dec, c.timeout, &w); err != nil {
			return err
		}
		if w.Kind != kindWelcome {
			return fmt.Errorf("expected welcome frame, got %v", w.Kind)
		}
		c.token = w.Token
		c.install(conn, enc, dec)
		return nil
	})
}

// recover is the client's recovery step for recvReliable: redial, send
// a resume with our cumulative ack, adopt the host's ack, and replay
// our unacknowledged outbox.
func (c *clientPeer) recover(deadline time.Time) error {
	return c.dialRetry(func(conn net.Conn, enc *gob.Encoder, dec *gob.Decoder) error {
		if time.Now().After(deadline) {
			return errBudget
		}
		rf := frame{Kind: kindResume, ID: int(c.id), Token: c.token, Ack: c.ackSeq()}
		if err := writeFrame(conn, enc, c.timeout, rf); err != nil {
			return err
		}
		var ack frame
		if err := readFrame(conn, dec, c.timeout, &ack); err != nil {
			return err
		}
		if ack.Kind != kindResumeAck {
			return fmt.Errorf("expected resume-ack frame, got %v", ack.Kind)
		}
		c.install(conn, enc, dec)
		c.trimOutbox(ack.Ack)
		replay := c.replayList()
		c.wmu.Lock()
		for _, f := range replay {
			if writeFrame(conn, enc, c.timeout, f) != nil {
				break
			}
		}
		c.wmu.Unlock()
		return nil
	})
}

// expect receives the next in-order frame and checks its kind (and
// round, when nonzero). The budget scales with the party count: the
// host heals peers one at a time, so a client may legitimately wait
// through other peers' recoveries.
func (c *clientPeer) expect(kind frameKind, round int) (frame, error) {
	deadline := time.Now().Add(2 * time.Duration(c.nParties) * c.timeout)
	f, err := c.recvReliable(deadline, c.recover)
	if err != nil {
		return frame{}, err
	}
	if f.Kind != kind || (round != 0 && f.Round != round) {
		return frame{}, fmt.Errorf("expected %v/r%d frame, got %v/r%d", kind, round, f.Kind, f.Round)
	}
	return f, nil
}

// runClient is one party process: connect with bounded dial retry,
// handshake, round loop, output — all over the reliable frame layer, so
// transient connection faults heal transparently. It returns ErrKilled
// when the fault injector crashes the party.
func runClient(addr string, proto sim.Protocol, id sim.PartyID, input sim.Value, cfg SessionConfig) error {
	cfg = cfg.withDefaults()
	c := newClientPeer(addr, id, proto.NumParties(), cfg)
	if err := c.connect(); err != nil {
		return err
	}
	defer c.close()

	sf, err := c.expect(kindSetup, 0)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	var setupOut sim.Value
	if sf.HasSetup {
		v, err := cfg.Codec.Decode(sf.SetupOut)
		if err != nil {
			return err
		}
		setupOut = v
	}
	machine, err := proto.NewParty(id, input, setupOut, sf.SetupAborted, rand.New(rand.NewSource(sf.Seed)))
	if err != nil {
		return err
	}

	totalRounds := proto.NumRounds() + 1
	for r := 1; r <= totalRounds; r++ {
		inf, err := c.expect(kindInbox, r)
		if err != nil {
			return fmt.Errorf("round %d inbox: %w", r, err)
		}
		inbox := make([]sim.Message, 0, len(inf.Msgs))
		for _, m := range inf.Msgs {
			payload, err := cfg.Codec.Decode(m.Payload)
			if err != nil {
				return fmt.Errorf("round %d payload: %w", r, err)
			}
			inbox = append(inbox, sim.Message{
				From: sim.PartyID(m.From), To: sim.PartyID(m.To), Payload: payload,
			})
		}
		out, err := machine.Round(r, inbox)
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		batch := frame{Kind: kindBatch, Round: r}
		for _, m := range out {
			data, err := cfg.Codec.Encode(m.Payload)
			if err != nil {
				return fmt.Errorf("round %d encode: %w", r, err)
			}
			batch.Msgs = append(batch.Msgs, wireMsg{From: int(id), To: int(m.To), Payload: data})
		}
		if err := c.sendReliable(batch); err != nil {
			return err // ErrKilled: the party crashes here
		}
	}

	of := frame{Kind: kindOutput, Round: totalRounds + 1}
	if v, ok := machine.Output(); ok {
		data, err := cfg.Codec.Encode(v)
		if err != nil {
			return err
		}
		of.Output, of.OutputOK = data, true
	}
	if err := c.sendReliable(of); err != nil {
		return err
	}
	// Stay connected until the host acknowledges the output: a dropped
	// output frame heals via resume replay only while we are reachable.
	if _, err := c.expect(kindBye, 0); err != nil {
		return fmt.Errorf("bye: %w", err)
	}
	return nil
}
