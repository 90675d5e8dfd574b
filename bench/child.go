package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one measured process: a tisweep sweep or a tiserved daemon. The
// child announces the end of its set-up with a line on standard error
// ("tisweep: N scenarios on W workers", "tiserved: listening on ADDR");
// the time from start to that line is its set-up time.
type child struct {
	cmd   *exec.Cmd
	start time.Time
	ready chan struct{} // receives once, when the ready line arrives
	done  chan struct{} // closed when stderr is drained
	tail  tailBuffer
}

// exited is what a finished child reports.
type exited struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	maxRSS int64         // bytes
	err    error         // non-zero exit or a wait failure, with the stderr tail
}

// startChild runs bin with args, watching its standard error for a line
// starting with readyPrefix. The context bounds the child's lifetime.
func startChild(ctx context.Context, bin string, args []string, readyPrefix string) (*child, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.WaitDelay = 5 * time.Second
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, ready: make(chan struct{}, 1), done: make(chan struct{})}
	c.start = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		defer close(c.done)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if !sent && strings.HasPrefix(line, readyPrefix) {
				c.ready <- struct{}{}
				sent = true
			}
			c.tail.add(line)
		}
		// Drain whatever a too-long line left so the child never blocks.
		_, _ = io.Copy(io.Discard, stderr)
	}()
	return c, nil
}

// waitReady blocks until the child printed its ready line and returns the
// set-up time. It fails if the child ends first.
func (c *child) waitReady() (time.Duration, error) {
	select {
	case <-c.ready:
		return time.Since(c.start), nil
	case <-c.done:
		select {
		case <-c.ready:
			return time.Since(c.start), nil
		default:
		}
		return 0, fmt.Errorf("%s ended before it was ready: %s", c.cmd.Path, c.tail.String())
	}
}

// signal sends sig to the child.
func (c *child) signal(sig syscall.Signal) {
	if c.cmd.Process != nil {
		_ = c.cmd.Process.Signal(sig) // the process may have exited already
	}
}

// wait reaps the child after its standard error is drained and reports its
// wall time, CPU time and peak resident set.
func (c *child) wait() exited {
	<-c.done
	err := c.cmd.Wait()
	out := exited{wall: time.Since(c.start)}
	if ps := c.cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			out.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
			out.maxRSS = ru.Maxrss * 1024 // Linux reports ru_maxrss in KiB
		}
	}
	if err != nil {
		out.err = fmt.Errorf("%s: %w: %s", c.cmd.Path, err, c.tail.String())
	}
	return out
}

// kill stops the child at once and reaps it.
func (c *child) kill() {
	c.signal(syscall.SIGKILL)
	c.wait()
}

// tailBuffer keeps the last lines a child wrote to standard error, for
// error messages.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

const tailLines = 20

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, line)
	if len(t.lines) > tailLines {
		t.lines = t.lines[len(t.lines)-tailLines:]
	}
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}
