package router

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// ManagerConfig describes a local msrp-serve fleet to spawn and manage.
type ManagerConfig struct {
	// ServeBin is the msrp-serve binary path.
	ServeBin string
	// GraphPath is passed to every replica as -graph. Every replica gets
	// the full graph and source set: the shard lives in the routing, not
	// in the replica configuration, which is what lets any replica serve
	// any source during failover.
	GraphPath string
	// Replicas is the fleet size (must be ≥ 1).
	Replicas int
	// ExtraArgs is appended to each replica's command line after -graph
	// and -addr (e.g. -auto-sources, -track-paths, -max-cached).
	ExtraArgs []string
	// HealthyTimeout bounds the wait for a spawned replica's first
	// healthy /healthz (0 = 30s).
	HealthyTimeout time.Duration
	// Logf receives lifecycle events (nil = silent).
	Logf func(format string, args ...any)
}

// managedProc is one live replica process.
type managedProc struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait returns (process reaped)
}

// Manager spawns and supervises a local replica fleet, and doubles as
// the chaos harness: it can crash (SIGKILL), terminate (SIGTERM), stall
// (SIGSTOP), resume (SIGCONT), and restart replicas mid-run. A restart
// respawns on the same port, so the router's replica URL set — and
// therefore the ring — is untouched; only health state moves. Add
// spawns a brand-new replica on a fresh port for a membership join; the
// manager's index space is append-only, in lockstep with the router's
// slot ids.
type Manager struct {
	cfg    ManagerConfig
	client *http.Client

	mu    sync.Mutex
	ports []int
	urls  []string
	procs []*managedProc // procs[i] == nil while replica i is down
}

// NewManager reserves a port per replica and spawns the fleet, waiting
// for every replica to turn healthy. On error, anything already
// spawned is torn down.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("router: manager needs at least 1 replica, got %d", cfg.Replicas)
	}
	if cfg.HealthyTimeout <= 0 {
		cfg.HealthyTimeout = 30 * time.Second
	}
	m := &Manager{
		cfg:    cfg,
		client: &http.Client{Timeout: 2 * time.Second},
		ports:  make([]int, cfg.Replicas),
		urls:   make([]string, cfg.Replicas),
		procs:  make([]*managedProc, cfg.Replicas),
	}
	for i := 0; i < cfg.Replicas; i++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		m.ports[i] = port
		m.urls[i] = fmt.Sprintf("http://127.0.0.1:%d", port)
	}
	for i := 0; i < cfg.Replicas; i++ {
		if err := m.spawn(i); err != nil {
			m.StopAll()
			return nil, err
		}
	}
	for i := 0; i < cfg.Replicas; i++ {
		if err := m.waitHealthy(i); err != nil {
			m.StopAll()
			return nil, err
		}
	}
	return m, nil
}

// URLs returns the fleet's base URLs (stable across restarts).
func (m *Manager) URLs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.urls))
	copy(out, m.urls)
	return out
}

// url returns replica i's base URL.
func (m *Manager) url(i int) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.urls[i]
}

// count returns the number of replica slots ever allocated.
func (m *Manager) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.procs)
}

// Add reserves a fresh port, spawns a new replica on it, and waits for
// it to turn healthy — the process half of a membership join (the
// routing half is Router.Join with the returned URL). Returns the new
// replica's index, which stays in lockstep with the router's slot ids
// as long as every join goes through both.
func (m *Manager) Add() (int, string, error) {
	port, err := freePort()
	if err != nil {
		return -1, "", err
	}
	url := fmt.Sprintf("http://127.0.0.1:%d", port)
	m.mu.Lock()
	i := len(m.procs)
	m.ports = append(m.ports, port)
	m.urls = append(m.urls, url)
	m.procs = append(m.procs, nil)
	m.mu.Unlock()
	if err := m.spawn(i); err != nil {
		return -1, "", err
	}
	if err := m.waitHealthy(i); err != nil {
		_ = m.Kill(i)
		return -1, "", err
	}
	m.logf("replica %d: added on %s", i, url)
	return i, url, nil
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

func (m *Manager) spawn(i int) error {
	m.mu.Lock()
	port := m.ports[i]
	url := m.urls[i]
	m.mu.Unlock()
	args := append([]string{
		"-graph", m.cfg.GraphPath,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
	}, m.cfg.ExtraArgs...)
	cmd := exec.Command(m.cfg.ServeBin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("router: spawn replica %d: %w", i, err)
	}
	p := &managedProc{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(p.done)
	}()
	m.mu.Lock()
	m.procs[i] = p
	m.mu.Unlock()
	m.logf("replica %d: spawned pid %d on %s", i, cmd.Process.Pid, url)
	return nil
}

func (m *Manager) waitHealthy(i int) error {
	base := m.url(i)
	deadline := time.Now().Add(m.cfg.HealthyTimeout)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		resp, err := m.client.Do(req)
		cancel()
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("router: replica %d (%s) not healthy within %s", i, base, m.cfg.HealthyTimeout)
}

func (m *Manager) proc(i int) (*managedProc, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i < 0 || i >= len(m.procs) {
		return nil, fmt.Errorf("router: no replica %d", i)
	}
	if m.procs[i] == nil {
		return nil, fmt.Errorf("router: replica %d is not running", i)
	}
	return m.procs[i], nil
}

func (m *Manager) signal(i int, sig syscall.Signal) error {
	p, err := m.proc(i)
	if err != nil {
		return err
	}
	return p.cmd.Process.Signal(sig)
}

// Kill crashes replica i (SIGKILL) and reaps it. The port stays
// reserved for Restart.
func (m *Manager) Kill(i int) error {
	p, err := m.proc(i)
	if err != nil {
		return err
	}
	// CONT first: a stalled (SIGSTOP) process still dies to SIGKILL, but
	// resuming keeps the kernel from holding it in the stopped state
	// with pending signals on some configurations.
	_ = p.cmd.Process.Signal(syscall.SIGCONT)
	if err := p.cmd.Process.Kill(); err != nil {
		return err
	}
	<-p.done
	m.mu.Lock()
	m.procs[i] = nil
	m.mu.Unlock()
	m.logf("replica %d: killed", i)
	return nil
}

// Term asks replica i to shut down gracefully (SIGTERM: lame-duck
// drain, then exit) and reaps it.
func (m *Manager) Term(i int) error {
	p, err := m.proc(i)
	if err != nil {
		return err
	}
	_ = p.cmd.Process.Signal(syscall.SIGCONT)
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	m.mu.Lock()
	m.procs[i] = nil
	m.mu.Unlock()
	m.logf("replica %d: terminated", i)
	return nil
}

// Stall freezes replica i (SIGSTOP): the process stays alive and its
// listener keeps accepting into the kernel backlog, but nothing
// answers — the "healthy-looking but wedged" failure mode that only
// deadlines catch.
func (m *Manager) Stall(i int) error {
	if err := m.signal(i, syscall.SIGSTOP); err != nil {
		return err
	}
	m.logf("replica %d: stalled (SIGSTOP)", i)
	return nil
}

// Resume un-freezes a stalled replica (SIGCONT).
func (m *Manager) Resume(i int) error {
	if err := m.signal(i, syscall.SIGCONT); err != nil {
		return err
	}
	m.logf("replica %d: resumed (SIGCONT)", i)
	return nil
}

// Restart respawns replica i on its original port (killing it first if
// still running) and waits for it to turn healthy. Same URL → the
// router's ring and health slots are unchanged; the rejoin shows up as
// probe successes.
func (m *Manager) Restart(i int) error {
	if _, err := m.proc(i); err == nil {
		if err := m.Kill(i); err != nil {
			return err
		}
	}
	if err := m.spawn(i); err != nil {
		return err
	}
	return m.waitHealthy(i)
}

// Apply dispatches a chaos op by name: kill, term, stall, resume,
// restart. This is the /v1/chaos and load-plan surface.
func (m *Manager) Apply(op string, i int) error {
	switch op {
	case "kill":
		return m.Kill(i)
	case "term":
		return m.Term(i)
	case "stall":
		return m.Stall(i)
	case "resume":
		return m.Resume(i)
	case "restart":
		return m.Restart(i)
	default:
		return fmt.Errorf("router: unknown chaos op %q (want kill|term|stall|resume|restart)", op)
	}
}

// TermAll sends SIGTERM to every live replica concurrently and waits —
// the graceful fleet shutdown.
func (m *Manager) TermAll() {
	var wg sync.WaitGroup
	for i := 0; i < m.count(); i++ {
		if _, err := m.proc(i); err != nil {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = m.Term(i)
		}(i)
	}
	wg.Wait()
}

// StopAll force-stops the fleet (CONT then KILL — a stopped process
// never sees a TERM, so unconditional KILL is the only reliable
// teardown) and reaps everything.
func (m *Manager) StopAll() {
	for i := 0; i < m.count(); i++ {
		p, err := m.proc(i)
		if err != nil {
			continue
		}
		_ = p.cmd.Process.Signal(syscall.SIGCONT)
		_ = p.cmd.Process.Kill()
		<-p.done
		m.mu.Lock()
		m.procs[i] = nil
		m.mu.Unlock()
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}
