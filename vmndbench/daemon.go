package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one vmnd process driven over its stdin/stdout protocol by a
// single closed-loop client: each request is written only after the
// previous response line was read.
type daemon struct {
	cmd    *exec.Cmd
	in     io.WriteCloser
	out    *bufio.Reader
	stderr bytes.Buffer
	buf    []byte // response line, reused
	wbuf   []byte // request line, reused
}

// startDaemon starts vmnd and reads its first result line (the initial
// verification). setup is the time from process start to that line.
func startDaemon(bin string, args []string) (d *daemon, first []byte, setup time.Duration, err error) {
	d = &daemon{cmd: exec.Command(bin, args...)}
	d.cmd.Stderr = &d.stderr
	// The daemon must not outlive the benchmark, even when it is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if d.in, err = d.cmd.StdinPipe(); err != nil {
		return nil, nil, 0, err
	}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, nil, 0, err
	}
	d.out = bufio.NewReaderSize(stdout, 1<<20)
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, nil, 0, fmt.Errorf("starting vmnd: %w", err)
	}
	first, err = d.readLine()
	setup = time.Since(start)
	if err != nil {
		d.kill()
		return nil, nil, 0, fmt.Errorf("vmnd initial result: %w (stderr: %s)", err, d.stderr.String())
	}
	return d, append([]byte(nil), first...), setup, nil
}

// request sends one request line and returns the response line. The
// returned slice is valid until the next call. On error the daemon is
// stopped.
func (d *daemon) request(req []byte) ([]byte, error) {
	d.wbuf = append(append(d.wbuf[:0], req...), '\n')
	if _, err := d.in.Write(d.wbuf); err != nil {
		d.kill()
		return nil, fmt.Errorf("writing request: %w (stderr: %s)", err, d.stderr.String())
	}
	resp, err := d.readLine()
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("reading response: %w (stderr: %s)", err, d.stderr.String())
	}
	return resp, nil
}

func (d *daemon) readLine() ([]byte, error) {
	d.buf = d.buf[:0]
	for {
		chunk, err := d.out.ReadSlice('\n')
		d.buf = append(d.buf, chunk...)
		if err == nil {
			return d.buf[:len(d.buf)-1], nil
		}
		if !errors.Is(err, bufio.ErrBufferFull) {
			return nil, err
		}
	}
}

// peakRSSMB reads the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", l, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuSeconds reads the daemon's user+system CPU time so far (all
// threads). Time the hypervisor steals is not charged to it.
func (d *daemon) cpuSeconds() (float64, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15, in USER_HZ ticks.
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", stat)
	}
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", stat)
	}
	var ticks float64
	for _, s := range f[11:13] {
		t, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc stat %q: %w", stat, err)
		}
		ticks += t
	}
	return ticks / 100, nil
}

// close ends the session the way a client does (EOF on stdin) and waits
// for a clean exit.
func (d *daemon) close() error {
	if err := d.in.Close(); err != nil {
		d.kill()
		return err
	}
	if _, err := io.Copy(io.Discard, d.out); err != nil {
		d.kill()
		return err
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("vmnd exit: %w (stderr: %s)", err, d.stderr.String())
	}
	return nil
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exiting or exited; Wait reports nothing useful
	_ = d.cmd.Wait()
}
