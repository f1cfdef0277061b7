package replica

import (
	"fmt"
	"io"
	"strconv"

	"cards/internal/farmem"
	"cards/internal/remote"
	"cards/internal/shardmap"
)

// FarTier is a dialed far tier: the store a runtime runs over, owning
// its connections. The multi-backend tiers also have
// SetPolicy(ds, shardmap.Policy).
type FarTier interface {
	farmem.Store
	io.Closer
}

// Dial connects the far tier at addrs: one pipelined client per address,
// labelled with its shard index when there are several, and pinged — all
// must answer, a fleet that starts degraded is a deployment error, not
// an outage. Over them it stacks what the fleet's size and opts.Replicas
// call for:
//
//   - one address: nothing, the client is the tier;
//   - several, opts.Replicas > 1: a replicated Store (New);
//   - several otherwise: a shardmap.ShardedStore with opts'
//     BreakerThreshold, ProbeEvery and Obs, so one dead server degrades
//     only its keys.
//
// On any error every client already open is closed.
func Dial(addrs []string, popts remote.PipelineOpts, opts Options) (tier FarTier, err error) {
	if opts.Replicas > 1 && len(addrs) < opts.Replicas {
		return nil, fmt.Errorf("replica: Replicas=%d needs at least that many addresses (have %d)",
			opts.Replicas, len(addrs))
	}
	clients := make([]*remote.PipelinedClient, 0, len(addrs))
	defer func() {
		if err != nil {
			for _, c := range clients {
				c.Close()
			}
		}
	}()
	backends := make([]farmem.Store, len(addrs))
	for i, addr := range addrs {
		if len(addrs) > 1 {
			popts.Shard = strconv.Itoa(i)
		}
		c, derr := remote.DialPipelined(addr, popts)
		if derr == nil {
			clients = append(clients, c)
			derr = c.Ping()
		}
		if derr != nil {
			return nil, fmt.Errorf("far tier %s: %w", addr, derr)
		}
		backends[i] = c
	}
	switch {
	case len(clients) == 1:
		return clients[0], nil
	case opts.Replicas > 1:
		tier, err = New(backends, opts)
	default:
		tier, err = shardmap.NewSharded(backends, shardmap.Options{
			BreakerThreshold: opts.BreakerThreshold, ProbeEvery: opts.ProbeEvery, Obs: opts.Obs,
		})
	}
	if err != nil {
		return nil, err
	}
	return tier, nil
}
