package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// child is a running server process and its control pipe.
type child struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Reader
	addr  string
	setup time.Duration // process start until listening, preload done
	done  bool
}

// spawn starts a server process and waits until it is listening.
func spawn(spec serverSpec) (*child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, spec.args()...)
	cmd.Stderr = os.Stderr
	// The server must not outlive the generator, however it exits.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	ch := &child{cmd: cmd, in: in, out: bufio.NewReaderSize(outPipe, 1<<20)}
	line, err := ch.out.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "READY ") {
		ch.kill()
		return nil, fmt.Errorf("server did not start (%q): %v", strings.TrimSpace(line), err)
	}
	ch.setup = time.Since(t0)
	ch.addr = strings.TrimSpace(strings.TrimPrefix(line, "READY "))
	return ch, nil
}

// call sends one command and decodes its JSON reply into v.
func (c *child) call(cmd string, v any) error {
	if _, err := io.WriteString(c.in, cmd+"\n"); err != nil {
		return fmt.Errorf("server %s: %w", cmd, err)
	}
	line, err := c.out.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("server %s: %w", cmd, err)
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(line, v)
}

func (c *child) snap() (snap, error) {
	var s snap
	err := c.call("snap", &s)
	return s, err
}

// quit shuts the server down gracefully and waits for it to exit.
func (c *child) quit() error {
	if c.done {
		return nil
	}
	err := c.call("quit", nil)
	c.in.Close()
	werr := c.cmd.Wait()
	c.done = true
	if err != nil {
		return err
	}
	return werr
}

// kill sends SIGKILL and waits for the process to end. A nil child (one
// that failed to start) is already gone.
func (c *child) kill() {
	if c == nil || c.done {
		return
	}
	_ = c.cmd.Process.Kill()
	c.in.Close()
	_ = c.cmd.Wait() // exit status is "killed"; nothing to report
	c.done = true
}
