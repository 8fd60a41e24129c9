package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"
)

// memNet is an in-process network for the workloads that go over HTTP:
// servers listen on in-memory listeners and clients dial them through
// net.Pipe, so every hop still runs the full net/http stack (framing,
// JSON encoding, connection reuse) without opening a socket. The
// benchmark then runs where sockets are refused, and the kernel's TCP
// stack, which the system does not control, stays out of the numbers.
type memNet struct {
	mu        sync.Mutex
	listeners map[string]*memListener
}

func newMemNet() *memNet { return &memNet{listeners: map[string]*memListener{}} }

// serve starts an httptest.Server for h on a new in-memory address; Close
// it as any httptest.Server.
func (n *memNet) serve(h http.Handler) *httptest.Server {
	n.mu.Lock()
	l := &memListener{
		addr:  memAddr(fmt.Sprintf("mem%d:80", len(n.listeners)+1)),
		conns: make(chan net.Conn),
		done:  make(chan struct{}),
	}
	n.listeners[l.addr.String()] = l
	n.mu.Unlock()
	s := &httptest.Server{Listener: l, Config: &http.Server{Handler: h}}
	s.Start()
	return s
}

// transport is a fresh transport on n with the pooling of httpapi's
// shared client, so every hop owns its connections.
func (n *memNet) transport() *http.Transport {
	return &http.Transport{
		DialContext:         n.dial,
		MaxIdleConns:        512,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
	}
}

func (n *memNet) dial(ctx context.Context, _, addr string) (net.Conn, error) {
	n.mu.Lock()
	l := n.listeners[addr]
	n.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("memnet: dial %s: no such listener", addr)
	}
	client, server := net.Pipe()
	var err error
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		err = fmt.Errorf("memnet: dial %s: %w", addr, net.ErrClosed)
	case <-ctx.Done():
		err = ctx.Err()
	}
	client.Close()
	server.Close()
	return nil, err
}

// memListener hands the server ends of dialed pipes to Accept.
type memListener struct {
	addr  memAddr
	conns chan net.Conn
	once  sync.Once
	done  chan struct{}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *memListener) Addr() net.Addr { return l.addr }

type memAddr string

func (memAddr) Network() string  { return "mem" }
func (a memAddr) String() string { return string(a) }
