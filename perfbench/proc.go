package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// statusKB reads one "<key>: <n> kB" line of /proc/<pid>/status.
func statusKB(pid, key string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			fields := strings.Fields(v)
			if len(fields) == 0 {
				break
			}
			return strconv.ParseFloat(fields[0], 64)
		}
	}
	return 0, fmt.Errorf("/proc/%s/status has no %s", pid, key)
}

// proc is one program under test running as a child process.
type proc struct {
	cmd  *exec.Cmd
	done chan error
	log  *os.File
}

func startProc(bin, logPath string, args ...string) (*proc, error) {
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	p := &proc{cmd: cmd, done: make(chan error, 1), log: f}
	go func() { p.done <- cmd.Wait() }()
	return p, nil
}

// stop sends SIGTERM, waits for the process to exit (SIGKILL after 10s)
// and closes its log.
func (p *proc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// hwmMB is the process's peak resident set in MB.
func (p *proc) hwmMB() float64 {
	kb, _ := statusKB(strconv.Itoa(p.cmd.Process.Pid), "VmHWM")
	return kb / 1024
}

// freePorts reserves n loopback ports and releases them for the children.
func freePorts(n int) ([]int, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	var out []int
	for range n {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		out = append(out, l.Addr().(*net.TCPAddr).Port)
	}
	return out, nil
}
