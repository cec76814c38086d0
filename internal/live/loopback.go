package live

import (
	"fmt"
	"sort"
	"sync"

	"specsync/internal/node"
)

// Loopback is an in-process live cluster: one TCPHost per node on 127.0.0.1,
// the shape of a cmd/specsync-node deployment in one process. Every host is
// listening and has every other host's address before any handler's Init
// runs, so no handler sends to a peer it cannot reach.
//
// A node stops when its host closes (Stop) and comes back — a restart, a
// replica promotion, a joining replacement — as a new host under the same ID
// on a fresh port (Start). Every running host learns the new address before
// the new handler's Init runs.
type Loopback struct {
	cfg   TCPHostConfig
	mu    sync.Mutex
	hosts map[node.ID]*TCPHost
}

// NewLoopback starts one host per handler. cfg is every host's template; its
// ID, Handler, ListenAddr and Peers are set per node. Hosts start in the order
// cmd/specsync-node documents: servers and replicas, then workers, then the
// schedulers (and anything else).
func NewLoopback(cfg TCPHostConfig, handlers map[node.ID]node.Handler) (*Loopback, error) {
	l := &Loopback{cfg: cfg, hosts: make(map[node.ID]*TCPHost, len(handlers))}
	ids := make([]node.ID, 0, len(handlers))
	for id := range handlers {
		ids = append(ids, id)
	}
	startOrder(ids)
	for _, id := range ids {
		if _, err := l.add(id, handlers[id]); err != nil {
			l.Close()
			return nil, err
		}
	}
	for _, id := range ids {
		l.hosts[id].run()
	}
	return l, nil
}

// add binds a host for id that knows every current host, and tells each of
// them its address. The host runs nothing until run.
func (l *Loopback) add(id node.ID, h node.Handler) (*TCPHost, error) {
	cfg := l.cfg
	cfg.ID, cfg.Handler, cfg.ListenAddr = id, h, "127.0.0.1:0"
	cfg.Peers = make(map[node.ID]string, len(l.hosts))
	for peer, ph := range l.hosts {
		cfg.Peers[peer] = ph.Addr()
	}
	host, err := listenTCPHost(cfg)
	if err != nil {
		return nil, err
	}
	for _, ph := range l.hosts {
		ph.AddPeer(id, host.Addr())
	}
	l.hosts[id] = host
	return host, nil
}

// Host returns id's running host, or nil.
func (l *Loopback) Host(id node.ID) *TCPHost {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hosts[id]
}

// Start runs h as node id on a new host. id must not be running.
func (l *Loopback) Start(id node.ID, h node.Handler) (*TCPHost, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.hosts[id]; ok {
		return nil, fmt.Errorf("live: %s is already running", id)
	}
	host, err := l.add(id, h)
	if err != nil {
		return nil, err
	}
	host.run()
	return host, nil
}

// Stop closes id's host. Once it returns the handler runs no further
// callback, so its state may be read or handed to another host; sends to id
// fail as they would to a dead process.
func (l *Loopback) Stop(id node.ID) {
	l.mu.Lock()
	h := l.hosts[id]
	delete(l.hosts, id)
	l.mu.Unlock()
	if h != nil {
		h.Close()
	}
}

// Close stops every host, in the reverse of the start order.
func (l *Loopback) Close() {
	l.mu.Lock()
	hosts := l.hosts
	l.hosts = map[node.ID]*TCPHost{}
	l.mu.Unlock()
	ids := make([]node.ID, 0, len(hosts))
	for id := range hosts {
		ids = append(ids, id)
	}
	startOrder(ids)
	for i := len(ids) - 1; i >= 0; i-- {
		hosts[ids[i]].Close()
	}
}

// startOrder sorts ids servers and replicas first, then workers, then the
// rest, so that a scheduler's Init finds the workers it starts running.
func startOrder(ids []node.ID) {
	rank := func(id node.ID) int {
		if shard, _ := node.ReplicaOf(id); shard >= 0 || node.ServerIndex(id) >= 0 {
			return 0
		}
		if node.WorkerIndex(id) >= 0 {
			return 1
		}
		return 2
	}
	sort.Slice(ids, func(i, j int) bool {
		if ri, rj := rank(ids[i]), rank(ids[j]); ri != rj {
			return ri < rj
		}
		return ids[i] < ids[j]
	})
}
