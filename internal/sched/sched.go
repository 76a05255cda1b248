// Package sched is Mini-NOVA's scheduler: the paper's §III-D preemptive
// priority round-robin over double-linked circles per priority level,
// generalized to N CPUs with per-CPU runqueues and CPU-affinity masks —
// the architectural pivot that static-partitioning hypervisors for Arm
// mixed-criticality systems use to host partitioned multicore workloads.
//
// The kernel schedules opaque Nodes and never sees runqueue internals.
// A protection domain embeds one Node and the kernel hands that node to
// the Scheduler, so enqueue/dequeue stay allocation-free (intrusive
// rings).
package sched

import (
	"fmt"
	"math/bits"

	"repro/internal/simclock"
)

// NumPriorities bounds the priority levels a runqueue tracks (paper
// Fig. 3: idle=0, guest OSes=1, user services=2; one spare).
const NumPriorities = 4

// CPUMask is a bitmask of CPUs an entity may run on (bit i = CPU i).
// The zero value is treated as "any CPU" by Normalize.
type CPUMask uint32

// MaskOf builds a mask allowing exactly the given CPUs.
func MaskOf(cpus ...int) CPUMask {
	var m CPUMask
	for _, c := range cpus {
		m |= 1 << uint(c)
	}
	return m
}

// Has reports whether cpu is in the mask.
func (m CPUMask) Has(cpu int) bool { return m&(1<<uint(cpu)) != 0 }

// First returns the lowest CPU in the mask, or -1 when empty.
func (m CPUMask) First() int {
	if m == 0 {
		return -1
	}
	return bits.TrailingZeros32(uint32(m))
}

// Count returns the number of CPUs in the mask.
func (m CPUMask) Count() int { return bits.OnesCount32(uint32(m)) }

// Normalize clamps the mask to ncpu CPUs. A zero mask means "any CPU"
// and widens to all; a nonzero mask with no CPU in range is a caller bug
// (a pin that cannot be honored) and panics rather than silently placing
// the entity on a core it was supposed to be isolated from.
func (m CPUMask) Normalize(ncpu int) CPUMask {
	full := CPUMask(1)<<uint(ncpu) - 1
	if m == 0 {
		return full
	}
	if m&full == 0 {
		panic(fmt.Sprintf("sched: affinity %v names no CPU below %d", m, ncpu))
	}
	return m & full
}

func (m CPUMask) String() string { return fmt.Sprintf("cpus:%b", uint32(m)) }

// Node is one schedulable entity as the Scheduler sees it. The owner (a
// protection domain) embeds a Node and keeps Priority/Affinity current;
// everything lower-case belongs to the Scheduler that placed the node.
type Node struct {
	// Owner is an opaque back-pointer for the kernel (the *PD).
	Owner any
	// Priority is the entity's level (higher runs first). Read at
	// Enqueue time; the node remembers the ring it joined so a later
	// priority change takes effect on the next enqueue.
	Priority int
	// Affinity restricts placement (zero = any CPU).
	Affinity CPUMask

	cpu      int // home CPU assigned by Place (-1 = unplaced)
	ringPrio int // priority ring the node currently sits on
	queued   bool
	next     *Node
	prev     *Node
}

// CPU returns the node's home CPU (-1 before Place).
func (n *Node) CPU() int { return n.cpu }

// Queued reports whether the node is on a runqueue.
func (n *Node) Queued() bool { return n.queued }

// runqueue is one CPU's priority rings — the §III-D run-queue structure,
// now instantiated per CPU.
type runqueue struct {
	rings [NumPriorities]*Node // head of each priority circle (nil = empty)
}

func (q *runqueue) enqueue(n *Node) {
	if n.queued {
		return
	}
	n.queued = true
	n.ringPrio = clampPrio(n.Priority)
	head := q.rings[n.ringPrio]
	if head == nil {
		n.next, n.prev = n, n
		q.rings[n.ringPrio] = n
		return
	}
	tail := head.prev
	tail.next, n.prev = n, tail
	n.next, head.prev = head, n
}

func (q *runqueue) dequeue(n *Node) {
	if !n.queued {
		return
	}
	n.queued = false
	if n.next == n {
		q.rings[n.ringPrio] = nil
	} else {
		n.prev.next = n.next
		n.next.prev = n.prev
		if q.rings[n.ringPrio] == n {
			q.rings[n.ringPrio] = n.next
		}
	}
	n.next, n.prev = nil, nil
}

// pick returns the head of the highest non-empty priority circle.
func (q *runqueue) pick() *Node {
	for p := NumPriorities - 1; p >= 0; p-- {
		if q.rings[p] != nil {
			return q.rings[p]
		}
	}
	return nil
}

func (q *runqueue) rotate(prio int) {
	prio = clampPrio(prio)
	if q.rings[prio] != nil {
		q.rings[prio] = q.rings[prio].next
	}
}

// ringLen counts the nodes at one priority level (tests, load metrics).
func (q *runqueue) ringLen(prio int) int {
	head := q.rings[clampPrio(prio)]
	if head == nil {
		return 0
	}
	n, p := 1, head.next
	for p != head {
		n++
		p = p.next
	}
	return n
}

func (q *runqueue) len() int {
	total := 0
	for p := 0; p < NumPriorities; p++ {
		total += q.ringLen(p)
	}
	return total
}

func clampPrio(p int) int {
	if p < 0 {
		return 0
	}
	if p >= NumPriorities {
		return NumPriorities - 1
	}
	return p
}

// Scheduler holds one runqueue per CPU plus the placement bookkeeping.
// All methods are single-threaded (the platform model is one event
// loop).
type Scheduler struct {
	queues  []runqueue
	placed  []int // entities homed on each CPU (placement load)
	quantum simclock.Cycles
	// partitioned selects the static-partitioning placement rule
	// (otherwise placement balances; see Place).
	partitioned bool
}

// New builds a scheduler for ncpu CPUs with the given default quantum.
// The name picks the placement rule: "prio-rr" (the default when name is
// empty) or "partitioned". An unknown name is a caller bug and panics.
func New(name string, ncpu int, quantum simclock.Cycles) *Scheduler {
	if ncpu < 1 {
		panic("sched: need at least one CPU")
	}
	s := &Scheduler{
		queues:  make([]runqueue, ncpu),
		placed:  make([]int, ncpu),
		quantum: quantum,
	}
	switch name {
	case "", "prio-rr":
	case "partitioned":
		s.partitioned = true
	default:
		panic(fmt.Sprintf("sched: unknown policy %q", name))
	}
	return s
}

// Quantum is the default time slice handed to a freshly picked node.
func (s *Scheduler) Quantum() simclock.Cycles { return s.quantum }

// Place assigns (or re-validates) the node's home CPU from its affinity
// mask and returns it. Called once per node before its first Enqueue;
// placement is stable thereafter.
//
// Under "prio-rr" the node goes to the least-loaded CPU its mask allows
// (load = entities already homed there), lowest CPU id breaking ties,
// and an already-placed node keeps its home while the mask still allows
// it: symmetric guests balance across cores while pinning is honored,
// and with one CPU this is exactly the paper's single run queue.
//
// Under "partitioned" — the static partitioning of mixed-criticality
// hypervisors (Bao-style) — the node is pinned to the lowest CPU of its
// mask, deterministically and permanently: no balancing, no migration,
// so one partition's load can never perturb another's core. The paper's
// intended Zynq deployment (guests on CPU0, the Hardware Task Manager
// service on CPU1) is two one-bit masks under this rule.
func (s *Scheduler) Place(n *Node) int {
	mask := n.Affinity.Normalize(len(s.queues))
	if s.partitioned {
		return s.assign(n, mask.First())
	}
	if n.cpu >= 0 && mask.Has(n.cpu) {
		return n.cpu
	}
	best := -1
	for c := range s.queues {
		if !mask.Has(c) {
			continue
		}
		if best < 0 || s.placed[c] < s.placed[best] {
			best = c
		}
	}
	return s.assign(n, best)
}

// Rotate advances cpu's ring at the given priority after its head
// exhausted a quantum.
func (s *Scheduler) Rotate(cpu, prio int) { s.queues[cpu].rotate(prio) }

// Dequeue removes the node from its runqueue (suspend). Idempotent.
func (s *Scheduler) Dequeue(n *Node) { s.queues[s.homeOf(n)].dequeue(n) }

// Enqueue makes the node runnable on its home CPU's queue, at the tail
// of its priority ring. Idempotent.
func (s *Scheduler) Enqueue(n *Node) { s.queues[s.homeOf(n)].enqueue(n) }

// Unplace retires the node for good: it leaves its runqueue and its
// home CPU's placement count, so future Place calls no longer balance
// against a retired entity.
func (s *Scheduler) Unplace(n *Node) {
	s.Dequeue(n)
	if n.cpu >= 0 && n.cpu < len(s.placed) {
		s.placed[n.cpu]--
	}
	n.cpu = -1
}

// Pick returns the node to run next on cpu, or nil when the CPU's queue
// is empty. Pick does not dequeue.
func (s *Scheduler) Pick(cpu int) *Node { return s.queues[cpu].pick() }

// RingLen counts runnable nodes at one priority level on one CPU.
func (s *Scheduler) RingLen(cpu, prio int) int { return s.queues[cpu].ringLen(prio) }

// QueueLen counts all runnable nodes on one CPU.
func (s *Scheduler) QueueLen(cpu int) int { return s.queues[cpu].len() }

// homeOf returns the node's home CPU, defaulting an unplaced node to 0
// (Place should have run first; this keeps Dequeue total).
func (s *Scheduler) homeOf(n *Node) int {
	if n.cpu < 0 || n.cpu >= len(s.queues) {
		return 0
	}
	return n.cpu
}

func (s *Scheduler) assign(n *Node, cpu int) int {
	if n.cpu >= 0 && n.cpu < len(s.placed) && n.cpu != cpu {
		s.placed[n.cpu]--
	}
	if n.cpu != cpu {
		s.placed[cpu]++
	}
	n.cpu = cpu
	return cpu
}

// NewNode initializes a Node for an owner (home CPU unassigned).
func NewNode(owner any, prio int, affinity CPUMask) Node {
	return Node{Owner: owner, Priority: prio, Affinity: affinity, cpu: -1}
}
