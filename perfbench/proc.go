package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is a running server process. kill stops and reaps it; it is safe to
// call more than once and from the interrupt handler.
type child struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	lines  chan string // stdout lines other than round lines; closed at EOF
	mu     sync.Mutex
	rounds []roundRec // the round log so far; appended by the reader
	bad    error      // a round line that did not parse
	addr   string
	procs  int
	once   sync.Once
	waited chan struct{}
}

// live holds every child not yet reaped, so an interrupt can kill them all.
var live struct {
	sync.Mutex
	m map[*child]struct{}
}

func track(c *child, on bool) {
	live.Lock()
	defer live.Unlock()
	if live.m == nil {
		live.m = make(map[*child]struct{})
	}
	if on {
		live.m[c] = struct{}{}
	} else {
		delete(live.m, c)
	}
}

// killAll stops and reaps every live child.
func killAll() {
	live.Lock()
	cs := make([]*child, 0, len(live.m))
	for c := range live.m {
		cs = append(cs, c)
	}
	live.Unlock()
	for _, c := range cs {
		c.kill()
	}
}

// replyTimeout bounds every wait on the child: a child that stops answering
// fails the run instead of hanging it.
const replyTimeout = 20 * time.Second

// startChild spawns exe as the server child for sp and waits for its
// "ready" line.
func startChild(exe string, sp Spec, seed int64, walDir string) (*child, error) {
	spec, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		envChild+"=1",
		envSpec+"="+string(spec),
		envSeed+"="+strconv.FormatInt(seed, 10),
		envWAL+"="+walDir,
	)
	cmd.Stderr = os.Stderr
	// Backstop for a parent killed outright: the kernel kills the child too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server child: %w", err)
	}
	c := &child{cmd: cmd, stdin: stdin, lines: make(chan string, 1), waited: make(chan struct{})}
	track(c, true)
	go func() {
		defer close(c.lines)
		r := bufio.NewReaderSize(stdout, 1<<16)
		for {
			line, err := r.ReadString('\n')
			line = strings.TrimRight(line, "\n")
			if f := strings.Fields(line); len(f) > 0 && f[0] == "r" {
				rr, perr := parseRound(f[1:])
				c.mu.Lock()
				c.rounds = append(c.rounds, rr)
				if perr != nil && c.bad == nil {
					c.bad = perr
				}
				c.mu.Unlock()
			} else if len(line) > 0 {
				c.lines <- line
			}
			if err != nil {
				return
			}
		}
	}()
	line, err := c.next()
	if err != nil {
		c.kill()
		return nil, err
	}
	f := strings.Fields(line)
	if len(f) != 3 || f[0] != "ready" {
		c.kill()
		return nil, fmt.Errorf("server child: unexpected %q", line)
	}
	c.addr = f[1]
	c.procs, _ = strconv.Atoi(f[2])
	return c, nil
}

func (c *child) next() (string, error) {
	select {
	case line, ok := <-c.lines:
		if !ok {
			return "", fmt.Errorf("server child exited")
		}
		return line, nil
	case <-time.After(replyTimeout):
		return "", fmt.Errorf("server child did not answer within %v", replyTimeout)
	}
}

// send writes a command without waiting for a reply.
func (c *child) send(cmd string) error {
	_, err := io.WriteString(c.stdin, cmd+"\n")
	return err
}

// request sends cmd and decodes the reply's JSON payload into v; the reply
// must start with want.
func (c *child) request(cmd, want string, v any) error {
	if err := c.send(cmd); err != nil {
		return fmt.Errorf("server child %s: %w", cmd, err)
	}
	line, err := c.next()
	if err != nil {
		return err
	}
	payload, ok := strings.CutPrefix(line, want+" ")
	if !ok {
		return fmt.Errorf("server child %s: unexpected %q", cmd, line)
	}
	return json.Unmarshal([]byte(payload), v)
}

// roundLog returns the rounds logged so far. The slice is never written
// again below its length, so the caller may read it without the lock.
func (c *child) roundLog() ([]roundRec, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rounds[:len(c.rounds):len(c.rounds)], c.bad
}

// stop stops the child, reaps it and returns its whole round log.
func (c *child) stop() ([]roundRec, error) {
	err := c.send("stop")
	if err == nil {
		var line string
		if line, err = c.next(); err == nil && line != "stopped" {
			err = fmt.Errorf("server child stop: unexpected %q", line)
		}
	}
	c.kill()
	log, bad := c.roundLog()
	if err == nil {
		err = bad
	}
	return log, err
}

// kill closes the child's stdin (which makes it exit), kills it if it has
// not exited shortly after, and waits for it.
func (c *child) kill() {
	c.once.Do(func() {
		c.stdin.Close()
		go func() {
			for range c.lines {
			}
			_ = c.cmd.Wait() // exit status is irrelevant: the child was told to stop
			close(c.waited)
		}()
		select {
		case <-c.waited:
		case <-time.After(2 * time.Second):
			_ = c.cmd.Process.Kill() // fails only if it already exited
			<-c.waited
		}
		track(c, false)
	})
	<-c.waited
}
