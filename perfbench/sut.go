package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Proc is one ecfrmd process under test.
type Proc struct {
	Name string
	Addr string // 127.0.0.1:port
	Dir  string // its data directory
	Log  string // its combined stdout/stderr

	cmd     *exec.Cmd
	done    chan struct{}
	stopped bool
	// hwmKB is the process's peak RSS, read just before it is killed.
	hwmKB int64
}

// URL returns the process's base URL.
func (p *Proc) URL() string { return "http://" + p.Addr }

// live tracks every started process and deployment directory, so every exit
// path — a normal return, a failed check, SIGINT — kills and removes them.
var live = struct {
	sync.Mutex
	procs map[*Proc]bool
	dirs  map[string]bool
}{procs: map[*Proc]bool{}, dirs: map[string]bool{}}

// killAll SIGKILLs every tracked process, waits for each, and removes every
// tracked directory. It returns an error naming any process that outlived
// its kill.
func killAll() error {
	live.Lock()
	procs := make([]*Proc, 0, len(live.procs))
	for p := range live.procs {
		procs = append(procs, p)
	}
	dirs := make([]string, 0, len(live.dirs))
	for d := range live.dirs {
		dirs = append(dirs, d)
	}
	live.Unlock()
	var errs []error
	for _, p := range procs {
		if err := p.Kill(); err != nil {
			errs = append(errs, err)
		}
	}
	for _, d := range dirs {
		os.RemoveAll(d)
		live.Lock()
		delete(live.dirs, d)
		live.Unlock()
	}
	return errors.Join(errs...)
}

// freeAddr reserves a free loopback port from the kernel's ephemeral range
// (never the smoke scripts' fixed 18710+ ports) and releases it for the
// daemon to bind.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawn starts bin with args as a tracked process in its own process group,
// SIGKILLed by the kernel should this benchmark die first.
func spawn(name, bin, logPath string, args ...string) (*Proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	p := &Proc{Name: name, Log: logPath, cmd: cmd, done: make(chan struct{})}
	live.Lock()
	defer live.Unlock()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	live.procs[p] = true
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// Kill reads the process's peak RSS, SIGKILLs its process group, waits for
// it, and fails if anything in the group is still alive afterwards.
func (p *Proc) Kill() error {
	live.Lock()
	tracked := live.procs[p]
	delete(live.procs, p)
	live.Unlock()
	if !tracked {
		return nil
	}
	p.stopped = true
	if hwm, err := procStatusKB(p.cmd.Process.Pid, "VmHWM"); err == nil {
		p.hwmKB = hwm
	}
	pgid := p.cmd.Process.Pid
	syscall.Kill(-pgid, syscall.SIGKILL)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		return fmt.Errorf("%s (pid %d) did not exit within 10s of SIGKILL", p.Name, pgid)
	}
	if err := syscall.Kill(-pgid, 0); !errors.Is(err, syscall.ESRCH) {
		return fmt.Errorf("%s left process group %d behind after SIGKILL", p.Name, pgid)
	}
	return nil
}

// exited reports whether the process has ended on its own.
func (p *Proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// logTail returns the last lines of the process's log, for error messages.
func (p *Proc) logTail() string {
	b, err := os.ReadFile(p.Log)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}

// waitReady polls p's path until it answers 200, p exits, or 30 s pass.
func waitReady(ctx context.Context, p *Proc, path string) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code, _, err := getStatus(ctx, hc, p.URL()+path); err == nil && code == http.StatusOK {
			return nil
		}
		switch {
		case p.exited():
			return fmt.Errorf("%s exited before %s answered 200:\n%s", p.Name, path, p.logTail())
		case ctx.Err() != nil:
			return ctx.Err()
		case time.Now().After(deadline):
			return fmt.Errorf("%s: %s not 200 within 30s:\n%s", p.Name, path, p.logTail())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// procStatusKB reads one "Key: N kB" field of /proc/<pid>/status.
func procStatusKB(pid int, key string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, key)
}

// cpuTicks returns a process's user+system CPU time in clock ticks (USER_HZ,
// 100 per second on Linux) from /proc/<pid>/stat.
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields overall, the 12th and 13th after it.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	return ut + st, nil
}

const ticksPerSecond = 100

// SUT is one deployment of ecfrmd under test.
type SUT struct {
	Dir   string
	Procs []*Proc // every process started, the killed node included
	Front *Proc   // the process serving the object API
}

// Running returns the processes still alive.
func (s *SUT) Running() []*Proc {
	var out []*Proc
	for _, p := range s.Procs {
		if !p.stopped {
			out = append(out, p)
		}
	}
	return out
}

// Close kills every process and removes the deployment directory; it fails
// if any process survives its kill.
func (s *SUT) Close() error {
	var errs []error
	for _, p := range s.Procs {
		if err := p.Kill(); err != nil {
			errs = append(errs, err)
		}
	}
	os.RemoveAll(s.Dir)
	live.Lock()
	delete(live.dirs, s.Dir)
	live.Unlock()
	return errors.Join(errs...)
}

// slowDiskPlan is the -faults plan adding lat to every op on device 0.
func slowDiskPlan(lat time.Duration) string {
	return fmt.Sprintf(`{"seed":1,"policies":[{"device":0,"latency":%d}]}`, lat.Nanoseconds())
}

// Daemon flags shared by every process: the default 64 KiB cell and the
// fsync-always flush policy (the daemon default, stated explicitly).
var commonFlags = []string{"-elem", strconv.Itoa(cellBytes), "-fsync=always"}

// Scheme flags: single mode runs EC-FRM-LRC(6,2,2), the cluster RS(6,3);
// both with the EC-FRM layout. The replay builds the same schemes.
var (
	singleScheme  = []string{"-code", "lrc", "-k", "6", "-l", "2", "-m", "2", "-form", "ecfrm"}
	clusterScheme = []string{"-code", "rs", "-k", "6", "-m", "3", "-form", "ecfrm", "-groups", "4"}
)

const clusterNodes = 3

// startSUT deploys workload w's processes under dir (created fresh) and
// waits until the object API is ready.
func startSUT(ctx context.Context, bin, dir string, w Workload) (*SUT, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	live.Lock()
	live.dirs[dir] = true
	live.Unlock()
	s := &SUT{Dir: dir}
	// start spawns one process; stores (single mode, data nodes) get a
	// file backend in their own data directory.
	start := func(name string, stores bool, args ...string) (*Proc, error) {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		data := ""
		args = append(append([]string{"-addr", addr}, commonFlags...), args...)
		if stores {
			data = filepath.Join(dir, name)
			args = append(args, "-backend=file", "-data-dir", data)
		}
		p, err := spawn(name, bin, filepath.Join(dir, name+".log"), args...)
		if err != nil {
			return nil, err
		}
		p.Addr, p.Dir = addr, data
		s.Procs = append(s.Procs, p)
		return p, nil
	}
	fail := func(err error) (*SUT, error) {
		s.Close()
		return nil, err
	}
	if !w.Cluster {
		p, err := start("single", true, append([]string{"-mode=single"}, singleScheme...)...)
		if err != nil {
			return fail(err)
		}
		if err := waitReady(ctx, p, "/readyz"); err != nil {
			return fail(err)
		}
		s.Front = p
		return s, nil
	}
	var urls []string
	for i := 0; i < clusterNodes; i++ {
		p, err := start(fmt.Sprintf("node%d", i), true, "-mode=node")
		if err != nil {
			return fail(err)
		}
		urls = append(urls, p.URL())
	}
	for _, p := range s.Procs {
		if err := waitReady(ctx, p, "/readyz"); err != nil {
			return fail(err)
		}
	}
	// Probing every 100 ms, not the default 1 s, lets set-up see the killed
	// node down within a tenth of a second instead of at the next whole
	// second, which would round setup_s up by as much as a second.
	gwArgs := append([]string{"-mode=gateway", "-nodes", strings.Join(urls, ","), "-probe-interval", "100ms"}, clusterScheme...)
	gw, err := start("gateway", false, gwArgs...)
	if err != nil {
		return fail(err)
	}
	// The gateway's /readyz turns 200 once every node answered a probe.
	if err := waitReady(ctx, gw, "/readyz"); err != nil {
		return fail(err)
	}
	s.Front = gw
	return s, nil
}

// installFaults installs the fault plan over the object API's PUT /faults —
// the same plan -faults would load at start-up, but after seeding, so the
// straggler slows the reads it exists for and not the dataset load.
func (s *SUT) installFaults(ctx context.Context, plan string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, s.Front.URL()+"/faults", strings.NewReader(plan))
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("install fault plan: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("install fault plan: status %d", resp.StatusCode)
	}
	return nil
}

// killedNode is the data node SIGKILLed in cluster-degraded's setup.
const killedNode = clusterNodes - 1

// killNode SIGKILLs node killedNode and waits until the gateway's prober
// reports it down on /metrics.
func (s *SUT) killNode(ctx context.Context) error {
	p := s.Procs[killedNode]
	if err := p.Kill(); err != nil {
		return err
	}
	hc := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		sc, err := scrape(ctx, hc, s.Front)
		if err == nil {
			if up, ok := sc.get("ecfrm_gateway_node_up", "node", strconv.Itoa(killedNode)); ok && up == 0 {
				return nil
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway did not report node %d down within 30s", killedNode)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
