package transport

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"apf/internal/wire"
)

// rawPeer is a hand-driven wire-framed connection for protocol-violation
// tests: it speaks the framing without any of the client's validation.
type rawPeer struct {
	t    *testing.T
	conn net.Conn
}

// dialRaw opens a raw framed session to the server.
func dialRaw(t *testing.T, addr string) *rawPeer {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return &rawPeer{t: t, conn: conn}
}

func (p *rawPeer) send(m wire.Msg) {
	p.t.Helper()
	if err := writeMsg(p.conn, 5*time.Second, m, nil); err != nil {
		p.t.Fatal(err)
	}
}

func (p *rawPeer) recv() wire.Msg {
	p.t.Helper()
	m, err := readMsg(&countingConn{Conn: p.conn}, 5*time.Second, wire.MaxPayload, nil)
	if err != nil {
		p.t.Fatal(err)
	}
	return m
}

func (p *rawPeer) welcome() *WelcomeMsg {
	p.t.Helper()
	w, ok := p.recv().(*WelcomeMsg)
	if !ok {
		p.t.Fatal("expected a welcome frame")
	}
	return w
}

func (p *rawPeer) global() *GlobalMsg {
	p.t.Helper()
	g, ok := p.recv().(*GlobalMsg)
	if !ok {
		p.t.Fatal("expected a global frame")
	}
	return g
}

func startServer(t *testing.T, clients, rounds int) *Server {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Addr:       "127.0.0.1:0",
		NumClients: clients,
		Rounds:     rounds,
		Init:       []float64{1, 2, 3},
		IOTimeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestServerSurvivesClientCrashMidRound(t *testing.T) {
	srv := startServer(t, 1, 3)
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()

	peer := dialRaw(t, srv.Addr().String())
	peer.send(&JoinMsg{Name: "crasher"})
	peer.welcome()
	// Complete round 0 then vanish.
	peer.send(&UpdateMsg{Round: 0, Payload: []float64{1, 2, 3}, Weight: 1})
	peer.global()
	peer.conn.Close()

	select {
	case err := <-done:
		if err == nil {
			t.Error("server returned nil error after client crash")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server hung after client crash")
	}
}

func TestServerRejectsWrongRound(t *testing.T) {
	srv := startServer(t, 1, 2)
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()

	peer := dialRaw(t, srv.Addr().String())
	defer peer.conn.Close()
	peer.send(&JoinMsg{Name: "skewed"})
	peer.welcome()
	// Claim to be at round 7 during round 0.
	peer.send(&UpdateMsg{Round: 7, Payload: []float64{1, 2, 3}, Weight: 1})
	select {
	case err := <-done:
		if !errors.Is(err, errProtocol) {
			t.Errorf("expected protocol violation, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server hung on wrong-round update")
	}
}

func TestServerRejectsMismatchedPayloadLengths(t *testing.T) {
	srv := startServer(t, 2, 1)
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()

	var peers []*rawPeer
	for i := 0; i < 2; i++ {
		peer := dialRaw(t, srv.Addr().String())
		defer peer.conn.Close()
		peer.send(&JoinMsg{Name: "c"})
		peers = append(peers, peer)
	}
	for _, peer := range peers {
		peer.welcome()
	}
	// Client 0 sends 3 scalars, client 1 only 2.
	peers[0].send(&UpdateMsg{Round: 0, Payload: []float64{1, 2, 3}, Weight: 1})
	peers[1].send(&UpdateMsg{Round: 0, Payload: []float64{1, 2}, Weight: 1})
	select {
	case err := <-done:
		if !errors.Is(err, errProtocol) {
			t.Errorf("expected protocol violation, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server hung on mismatched payloads")
	}
}

// TestServerRejectsMalformedFrame feeds the registration path raw garbage:
// in strict mode the decode failure must abort the run with a typed wire
// error rather than hang or crash.
func TestServerRejectsMalformedFrame(t *testing.T) {
	srv := startServer(t, 1, 1)
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()

	conn, err := net.DialTimeout("tcp", srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("this is not a frame, not even close")); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("expected wire.ErrCorrupt, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server hung on a malformed join frame")
	}
}

func TestServerRegistrationTimesOut(t *testing.T) {
	srv := startServer(t, 1, 1)
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()
	// Connect but never send Join: the server's read deadline must fire.
	conn, err := net.DialTimeout("tcp", srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("server accepted a silent registration")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server hung waiting for Join past its IO timeout")
	}
}

func TestServerContextCancelDuringRegistration(t *testing.T) {
	srv := startServer(t, 2, 1) // second client never arrives
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(ctx)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("expected context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not honour cancellation")
	}
}

// TestFlushWaitsOutInflightAfterDetach pins the shutdown accounting race
// the relay tier made routine: a peer that reads the final aggregate and
// closes immediately can EOF-detach the session (conn = nil) in the gap
// between the writer's write succeeding and it clearing inflight. flush
// must wait out that in-flight frame — judged at detach time it would be
// miscounted as undelivered and fail a strict-mode run that actually
// delivered everything. A frame still queued at detach, by contrast, was
// genuinely never written and must keep failing the run.
func TestFlushWaitsOutInflightAfterDetach(t *testing.T) {
	t.Parallel()
	s := &Server{}
	s.history = make([]GlobalMsg, 1)

	// Delivered-but-unbookkept: conn gone, inflight still set; the writer
	// clears it a moment later, as after a successful write.
	sess := newSession(0, "k", "peer")
	sess.sent = 1
	sess.inflight = true
	s.sessions = []*session{sess}
	go func() {
		time.Sleep(20 * time.Millisecond)
		sess.mu.Lock()
		sess.inflight = false
		sess.cond.Broadcast()
		sess.mu.Unlock()
	}()
	if err := s.flush(context.Background()); err != nil {
		t.Errorf("flush failed on a delivered in-flight frame: %v", err)
	}

	// Genuinely undelivered: a frame the writer never started.
	stuck := newSession(1, "k2", "peer2")
	stuck.sent = 1
	stuck.queue = [][]byte{{0}}
	s.sessions = []*session{stuck}
	if err := s.flush(context.Background()); err == nil {
		t.Error("flush forgave a frame that was never written")
	}
}
