package bench

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"protego/internal/kernel"
	"protego/internal/netstack"
	"protego/internal/userspace"
	"protego/internal/world"
)

// PostalResult is the mail-throughput workload result (messages/min).
type PostalResult struct {
	Messages   int
	Elapsed    time.Duration
	MsgsPerMin float64
}

// RunPostal drives the exim server with messages clients, like the Postal
// benchmark for the exim4 server in Table 5.
func RunPostal(mode kernel.Mode, messages int) (*PostalResult, error) {
	m, err := world.Build(world.Options{Mode: mode})
	if err != nil {
		return nil, err
	}
	server, err := m.Session("Debian-exim")
	if err != nil {
		return nil, err
	}
	serverDone := make(chan int, 1)
	go func() {
		code, _, _, _ := m.Run(server, []string{userspace.BinExim, "serve", fmt.Sprint(messages)}, nil)
		serverDone <- code
	}()
	client, err := m.Session("alice")
	if err != nil {
		return nil, err
	}
	// Wait for the listener.
	deadline := time.Now().Add(2 * time.Second)
	for m.K.Net.PortOwner(netstack.IPPROTO_TCP, userspace.SMTPPort) == nil {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("postal: server never bound port %d", userspace.SMTPPort)
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	for i := 0; i < messages; i++ {
		code, _, errOut, _ := m.Run(client, []string{userspace.BinExim, "send", "alice", fmt.Sprintf("msg-%d", i)}, nil)
		if code != 0 {
			return nil, fmt.Errorf("postal: send %d failed: %s", i, errOut)
		}
	}
	elapsed := time.Since(start)
	if code := <-serverDone; code != 0 {
		return nil, fmt.Errorf("postal: server exited %d", code)
	}
	return &PostalResult{
		Messages:   messages,
		Elapsed:    elapsed,
		MsgsPerMin: float64(messages) / elapsed.Minutes(),
	}, nil
}

// CompileResult is the kernel-compile-style workload result.
type CompileResult struct {
	Files   int
	Elapsed time.Duration
}

// RunCompile models a parallel source-tree build: for every source file a
// compiler process is forked and exec'd; it stats shared headers, reads
// the source, and writes an object file. This exercises the fork/exec,
// open/read/write, and stat paths that dominate a kernel compile — the
// macro workload on which the paper reports 1.44% overhead.
func RunCompile(mode kernel.Mode, files int) (*CompileResult, error) {
	m, err := world.Build(world.Options{Mode: mode})
	if err != nil {
		return nil, err
	}
	builder, err := m.Session("alice")
	if err != nil {
		return nil, err
	}
	k := m.K
	// Lay out the source tree.
	if err := k.Mkdir(builder, "/home/alice/src", 0o755); err != nil {
		return nil, err
	}
	if err := k.Mkdir(builder, "/home/alice/obj", 0o755); err != nil {
		return nil, err
	}
	for h := 0; h < 8; h++ {
		if err := k.WriteFile(builder, fmt.Sprintf("/home/alice/src/header%d.h", h), []byte("#define X")); err != nil {
			return nil, err
		}
	}
	source := make([]byte, 2048)
	for i := range source {
		source[i] = byte('a' + i%26)
	}
	for f := 0; f < files; f++ {
		if err := k.WriteFile(builder, fmt.Sprintf("/home/alice/src/file%d.c", f), source); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	for f := 0; f < files; f++ {
		// cc is modeled as a fork+exec of the shell followed by the
		// compile body in the child's context.
		child := k.Fork(builder)
		for h := 0; h < 8; h++ {
			if _, err := k.Stat(child, fmt.Sprintf("/home/alice/src/header%d.h", h)); err != nil {
				return nil, err
			}
		}
		src := fmt.Sprintf("/home/alice/src/file%d.c", f)
		data, err := k.ReadFile(child, src)
		if err != nil {
			return nil, err
		}
		obj := fmt.Sprintf("/home/alice/obj/file%d.o", f)
		if err := k.WriteFile(child, obj, data[:1024]); err != nil {
			return nil, err
		}
		k.Exit(child, 0)
	}
	// Link step: read every object, write the image.
	image := make([]byte, 0, files*16)
	for f := 0; f < files; f++ {
		data, err := k.ReadFile(builder, fmt.Sprintf("/home/alice/obj/file%d.o", f))
		if err != nil {
			return nil, err
		}
		image = append(image, data[:16]...)
	}
	if err := k.WriteFile(builder, "/home/alice/vmlinux", image); err != nil {
		return nil, err
	}
	return &CompileResult{Files: files, Elapsed: time.Since(start)}, nil
}

// WebResult is the ApacheBench-style workload result for one concurrency
// level.
type WebResult struct {
	Concurrency  int
	Requests     int
	Elapsed      time.Duration
	MsPerRequest float64
	TransferKBps float64
}

// errWebInput rejects a web run in which some client would issue no
// request.
var errWebInput = errors.New("web: want a positive concurrency and at least one request per client")

// RunWeb drives the httpd server with `concurrency` parallel clients
// issuing `requests` total requests, reporting time-per-request and
// transfer rate like ApacheBench. Each client issues
// requests/concurrency of them, so requests must be at least
// concurrency.
func RunWeb(mode kernel.Mode, concurrency, requests int) (*WebResult, error) {
	if concurrency <= 0 || requests < concurrency {
		return nil, fmt.Errorf("%w: %d requests, %d clients", errWebInput, requests, concurrency)
	}
	m, err := world.Build(world.Options{Mode: mode})
	if err != nil {
		return nil, err
	}
	server, err := m.Session("www-data")
	if err != nil {
		return nil, err
	}
	perClient := requests / concurrency
	served := perClient * concurrency // what the clients will actually issue
	serverDone := make(chan int, 1)
	go func() {
		code, _, _, _ := m.Run(server, []string{userspace.BinHttpd, "serve", fmt.Sprint(served)}, nil)
		serverDone <- code
	}()
	deadline := time.Now().Add(2 * time.Second)
	for m.K.Net.PortOwner(netstack.IPPROTO_TCP, userspace.HTTPPort) == nil {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("web: server never bound port %d", userspace.HTTPPort)
		}
		time.Sleep(time.Millisecond)
	}

	alice, err := m.Session("alice")
	if err != nil {
		return nil, err
	}
	host := m.K.Net.HostIP()
	var wg sync.WaitGroup
	errCh := make(chan error, concurrency)
	var bytesMu sync.Mutex
	totalBytes := 0

	start := time.Now()
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := m.K.Fork(alice)
			defer m.K.Exit(client, 0)
			for r := 0; r < perClient; r++ {
				sock, err := m.K.Socket(client, netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP)
				if err != nil {
					errCh <- err
					return
				}
				if err := m.K.Connect(client, sock, host, userspace.HTTPPort); err != nil {
					errCh <- err
					return
				}
				if _, err := m.K.Send(client, sock, []byte("GET / HTTP/1.0\r\n\r\n")); err != nil {
					errCh <- err
					return
				}
				body, err := m.K.Recv(client, sock, 2*time.Second)
				if err != nil {
					errCh <- err
					return
				}
				bytesMu.Lock()
				totalBytes += len(body)
				bytesMu.Unlock()
				_ = m.K.CloseSocket(client, sock)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return nil, fmt.Errorf("web: client: %w", err)
	default:
	}
	<-serverDone

	return &WebResult{
		Concurrency:  concurrency,
		Requests:     served,
		Elapsed:      elapsed,
		MsPerRequest: float64(elapsed.Milliseconds()) / float64(served),
		TransferKBps: float64(totalBytes) / 1024 / elapsed.Seconds(),
	}, nil
}
