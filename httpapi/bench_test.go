package httpapi_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	exactsim "github.com/exactsim/exactsim"
	"github.com/exactsim/exactsim/httpapi"
)

// benchLoopback stands up Service → Server → Client over HTTP loopback
// with a warmed cache, so the measured cost is the transport (JSON both
// ways, one HTTP round trip) on top of BenchmarkServiceThroughput.
func benchLoopback(b *testing.B) *httpapi.Client {
	b.Helper()
	g := exactsim.GenerateBarabasiAlbert(2000, 4, 1)
	svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
		CacheSize:      256,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.05), exactsim.WithSeed(1)},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(svc.Close)
	ts := httptest.NewServer(httpapi.NewServer(svc, httpapi.ServerOptions{}))
	b.Cleanup(ts.Close)
	c, err := httpapi.NewClient(ts.URL)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for s := 0; s < 64; s++ {
		if resp, err := c.Query(ctx, exactsim.Request{Source: exactsim.NodeID(s)}); err != nil || resp.Err != nil {
			b.Fatalf("warm: %v %v", err, resp.Err)
		}
	}
	return c
}

// BenchmarkHTTPLoopbackQuery is one cached single-source query per
// iteration through the full HTTP stack.
func BenchmarkHTTPLoopbackQuery(b *testing.B) {
	c := benchLoopback(b)
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			resp, err := c.Query(ctx, exactsim.Request{Source: exactsim.NodeID(i & 63), K: 10})
			if err != nil {
				b.Fatal(err)
			}
			if resp.Err != nil {
				b.Fatal(resp.Err)
			}
			i++
		}
	})
}

// BenchmarkHTTPLoopbackBatch amortizes the round trip over 64 requests.
func BenchmarkHTTPLoopbackBatch(b *testing.B) {
	c := benchLoopback(b)
	ctx := context.Background()
	reqs := make([]exactsim.Request, 64)
	for i := range reqs {
		reqs[i] = exactsim.Request{Source: exactsim.NodeID(i & 63)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resps, err := c.Batch(ctx, reqs)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range resps {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkResponseWire is the answer path's per-hop work on one
// 100k-entry answer (~2.2 MB of JSON, a full single-source vector on the
// DB stand-in): encode and decode with the answer codec and with
// encoding/json, and the relay's syntax check against json.Valid.
func BenchmarkResponseWire(b *testing.B) {
	resp := sampleAnswer(100_000)
	data, err := httpapi.AppendResponse(nil, &resp)
	if err != nil {
		b.Fatal(err)
	}
	run := func(name string, op func() error) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for b.Loop() {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	var buf []byte
	run("encode/codec", func() (err error) {
		buf, err = httpapi.AppendResponse(buf[:0], &resp)
		return err
	})
	var std bytes.Buffer
	run("encode/encoding-json", func() error {
		std.Reset()
		return json.NewEncoder(&std).Encode(resp)
	})
	run("decode/codec", func() error {
		var out exactsim.Response
		return httpapi.DecodeResponse(data, &out)
	})
	run("decode/encoding-json", func() error {
		var out exactsim.Response
		return json.Unmarshal(data, &out)
	})
	run("scan/codec", func() error { return httpapi.ScanResponse(data) })
	run("scan/encoding-json", func() error {
		if !json.Valid(data) {
			b.Fatal("invalid answer")
		}
		return nil
	})
}
