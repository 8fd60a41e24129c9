package cluster

import (
	"context"
	"io"

	exactsim "github.com/exactsim/exactsim"
	"github.com/exactsim/exactsim/httpapi"
	"github.com/exactsim/exactsim/internal/store"
)

// CloneFromPeer bootstraps a joining replica's state: it downloads the
// snapshot container — graph CSR plus spilled diagonal sample index —
// from a warm peer (an exactsimd, or a router which proxies its warmest
// replica) and writes it to path atomically. Boot the new replica with
// `exactsimd -snapshot <path>` (or exactsim.OpenSnapshot) and it
// answers its first query with the peer's chunks already resident
// instead of cold-sampling everything the fleet has already paid for.
//
// The container is self-checksummed: a transfer truncated mid-stream
// fails to open rather than booting a half-warm replica, and the
// temp-file + rename means a crashed clone never leaves a corrupt file
// at path. Returns the byte count and the graph epoch the peer
// reported.
func CloneFromPeer(ctx context.Context, peerURL, path string, opts ...httpapi.ClientOption) (int64, uint64, error) {
	c, err := httpapi.NewClient(peerURL, opts...)
	if err != nil {
		return 0, 0, err
	}
	var (
		n     int64
		epoch uint64
	)
	err = store.WriteFile(path, func(w io.Writer) error {
		var err error
		if n, epoch, err = c.Snapshot(ctx, w); err != nil {
			return exactsim.Wrapf(exactsim.CodeUnavailable, err, "cluster: cloning from %s", peerURL)
		}
		return nil
	}, nil)
	return n, epoch, err
}
