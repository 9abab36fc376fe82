package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"sqalpel/internal/repository"
	"sqalpel/internal/server"
)

// spanHeader and groupHeader carry the id and group of a client span into
// the server span it causes, so the two nest in the traced run's spans.
const (
	spanHeader  = "X-Perfbench-Span"
	groupHeader = "X-Perfbench-Group"
)

// platform is an in-process sqalpeld: server.New over a durable store,
// served on a loopback port, with one registered user owning one project.
type platform struct {
	store   *repository.Store
	ts      *httptest.Server
	token   string
	key     string
	project int
}

// startPlatform opens a durable store in dir (every mutation fsynced to its
// write-ahead log) and serves it; obs times every request on the server
// side.
func startPlatform(dir string, obs *observer) (*platform, error) {
	store, err := repository.Open(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("opening store: %w", err)
	}
	srv := server.New(server.Options{Store: store})
	p := &platform{store: store}
	p.ts = httptest.NewServer(obs.wrap(srv))
	var reg struct {
		Token string `json:"token"`
	}
	if err := p.call("POST", "/api/register", map[string]string{"nickname": "bench", "email": "bench@example.org"}, http.StatusCreated, &reg); err != nil {
		p.close()
		return nil, err
	}
	p.token = reg.Token
	if err := p.newProject("bench"); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// newProject creates a public project and makes it the current one.
func (p *platform) newProject(name string) error {
	var proj struct {
		Project struct {
			ID int `json:"id"`
		} `json:"project"`
		Key string `json:"key"`
	}
	if err := p.call("POST", "/api/projects", map[string]any{"name": name, "public": true}, http.StatusCreated, &proj); err != nil {
		return err
	}
	p.project, p.key = proj.Project.ID, proj.Key
	return nil
}

func (p *platform) close() {
	p.ts.Close()
	_ = p.store.Close() // the run's store is discarded with its directory
}

// call sends a JSON request as the registered user and decodes the reply;
// a status other than want is an error.
func (p *platform) call(method, path string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, p.ts.URL+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("X-Sqalpel-Token", p.token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return nil
}

// observer times requests on both sides of the loopback connection: as an
// http.RoundTripper installed as http.DefaultTransport (which the driver's
// client uses) and as an http.Handler around the server. Latencies are
// kept per route; with a recorder, every request also becomes a client and
// a server span.
type observer struct {
	next http.RoundTripper
	rec  *recorder
	// trackTasks makes the traced drain note which task leased which
	// query, so the spans of one task share its id; set before any request.
	trackTasks bool

	tasks  map[string]int // release + query -> leasing task id
	mu     sync.Mutex
	client map[string][]time.Duration
	server map[string][]time.Duration
	status map[string]map[int]int
}

func newObserver(rec *recorder) *observer {
	return &observer{
		next:   http.DefaultTransport,
		rec:    rec,
		tasks:  map[string]int{},
		client: map[string][]time.Duration{},
		server: map[string][]time.Duration{},
		status: map[string]map[int]int{},
	}
}

// route names a request by method and path with numeric ids elided, e.g.
// "GET /api/projects/*/results".
func route(method, path string) string {
	parts := strings.Split(path, "/")
	for i, s := range parts {
		if _, err := strconv.Atoi(s); err == nil {
			parts[i] = "*"
		}
	}
	return method + " " + strings.Join(parts, "/")
}

// RoundTrip times a request from send until its body is closed.
func (o *observer) RoundTrip(req *http.Request) (*http.Response, error) {
	name := route(req.Method, req.URL.Path)
	group := name
	if o.trackTasks && name == "POST /api/task/complete" && req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			var c struct {
				TaskID int `json:"task_id"`
			}
			if json.NewDecoder(body).Decode(&c) == nil {
				group = fmt.Sprintf("task:%d", c.TaskID)
			}
		}
	}
	sp := o.rec.open("http.client", group, 0)
	if sp.ID != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(sp.ID, 10))
		req.Header.Set(groupHeader, group)
	}
	t0 := time.Now()
	resp, err := o.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if o.trackTasks && name == "POST /api/task/request" && resp.StatusCode == http.StatusOK {
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		o.noteLease(data)
		resp.Body = io.NopCloser(bytes.NewReader(data))
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		d := time.Since(t0)
		o.rec.end(sp)
		o.mu.Lock()
		o.client[name] = append(o.client[name], d)
		if o.status[name] == nil {
			o.status[name] = map[int]int{}
		}
		o.status[name][resp.StatusCode]++
		o.mu.Unlock()
	}}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// wrap times the server's handling of each request.
func (o *observer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := route(r.Method, r.URL.Path)
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		group := r.Header.Get(groupHeader)
		if group == "" {
			group = name
		}
		sp := o.rec.open("server", group, parent)
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		o.rec.end(sp)
		o.mu.Lock()
		o.server[name] = append(o.server[name], d)
		o.mu.Unlock()
	})
}

// take returns and clears the latencies observed so far, in milliseconds.
func (o *observer) take() (client, server map[string][]float64, status map[string]map[int]int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	conv := func(m map[string][]time.Duration) map[string][]float64 {
		out := map[string][]float64{}
		for k, ds := range m {
			for _, d := range ds {
				out[k] = append(out[k], ms(d))
			}
		}
		return out
	}
	client, server, status = conv(o.client), conv(o.server), o.status
	o.client, o.server, o.status = map[string][]time.Duration{}, map[string][]time.Duration{}, map[string]map[int]int{}
	return client, server, status
}

// install makes the observer http.DefaultTransport until the returned
// function restores the previous transport.
func (o *observer) install() func() {
	prev := http.DefaultTransport
	http.DefaultTransport = o
	return func() { http.DefaultTransport = prev }
}
