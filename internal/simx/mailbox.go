package simx

import "tireplay/internal/fifo"

// MailboxID is a mailbox handle: a dense index into the kernel's mailbox
// table, the only address of a mailbox. Mailboxes have no names, so a
// rendezvous neither formats nor hashes one; callers that need a mailbox
// per (src,dst) pair keep the IDs in tables of their own.
type MailboxID int32

// Mailbox is a rendezvous point matching sends and receives in FIFO order,
// the mechanism behind both the MSG-style replay actions and the MPI
// substrate. A message posted to a mailbox starts its transfer when a
// receive is posted there (and vice-versa); until then both sides block (or
// keep a pending handle, for the asynchronous variants).
type Mailbox struct {
	sends fifo.Queue[*Comm]
	recvs fifo.Queue[*Comm]
}

// Comm is the public handle on a pending, in-flight or completed
// communication, returned by the asynchronous mailbox operations and
// consumed by WaitComm. The send side and the receive side each hold their
// own handle; the two are joined to one transfer activity at match time.
// At completion the kernel detaches the handle from the (recycled) activity,
// so a Comm stays queryable for as long as the caller keeps it.
//
// Handles are pooled: the kernel reclaims detached sends at completion and
// the synchronous Send/Recv wrappers reclaim theirs on return, so the
// steady-state replay cycle allocates no handle. A handle obtained from
// ISend/IRecv can be handed back explicitly with Proc.ReleaseComm once the
// caller is done querying it.
type Comm struct {
	act    *activity // non-nil only while matched and in flight
	done   bool
	failed *FailedError // non-nil when a fail-stop killed the communication
	bytes  float64
	src    string
	dst    string

	proc         *Proc // poster of this side
	detached     bool
	matchWaiters []*Proc
}

// Bytes returns the size of the message in bytes. On a receive handle it is
// only meaningful once the communication has been matched.
func (c *Comm) Bytes() float64 { return c.bytes }

// Failed returns the fail-stop error that killed the communication, or nil.
// A failed comm is complete; waiting on it raises the failure in the
// waiting process (recoverable via FailureOf).
func (c *Comm) Failed() *FailedError { return c.failed }

func (c *Comm) matched() bool { return c.done || c.act != nil }

func (c *Comm) addMatchWaiter(p *Proc) {
	c.matchWaiters = append(c.matchWaiters, p)
}

// newComm takes a handle from the kernel pool (or allocates one) and resets
// it, keeping the match-waiter backing array.
func (k *Kernel) newComm() *Comm {
	n := len(k.commPool)
	if n == 0 {
		return &Comm{}
	}
	c := k.commPool[n-1]
	k.commPool[n-1] = nil
	k.commPool = k.commPool[:n-1]
	mw := c.matchWaiters[:0]
	*c = Comm{matchWaiters: mw}
	return c
}

// freeComm returns a handle to the pool. The caller guarantees no reference
// survives: the kernel does this itself for detached sends at completion,
// and the synchronous Send/Recv wrappers for the handles they never expose.
// Every live handle has a poster, so a cleared proc marks an
// already-released one and a double release degrades to a no-op instead of
// putting the same handle in the pool twice (two later rendezvous silently
// sharing one handle).
func (k *Kernel) freeComm(c *Comm) {
	if c.proc == nil {
		return
	}
	c.proc = nil
	k.commPool = append(k.commPool, c)
}

// NewMailbox creates a mailbox and returns its ID, the only way to address
// it. The replay tool creates one per rank pair for each kind of traffic
// the pair exchanges, point-to-point or collective; the MPI engine creates
// one per ordered rank pair.
func (k *Kernel) NewMailbox() MailboxID {
	k.mailboxes = append(k.mailboxes, &Mailbox{})
	return MailboxID(len(k.mailboxes) - 1)
}

// mailboxAt resolves an ID.
func (k *Kernel) mailboxAt(id MailboxID) *Mailbox {
	if int(id) < 0 || int(id) >= len(k.mailboxes) {
		panic("simx: invalid mailbox id")
	}
	return k.mailboxes[id]
}

// post registers a send request on the mailbox and matches it against a
// pending receive if one exists.
func (k *Kernel) post(p *Proc, mb *Mailbox, bytes float64, detached bool) *Comm {
	c := k.newComm()
	c.bytes = bytes
	c.src = p.name
	c.proc = p
	c.detached = detached
	if !mb.recvs.Empty() {
		k.match(c, mb.recvs.Pop())
	} else {
		mb.sends.Push(c)
	}
	return c
}

// postRecv registers a receive request on the mailbox and matches it
// against a pending send if one exists.
func (k *Kernel) postRecv(p *Proc, mb *Mailbox) *Comm {
	c := k.newComm()
	c.proc = p
	if !mb.sends.Empty() {
		k.match(mb.sends.Pop(), c)
	} else {
		mb.recvs.Push(c)
	}
	return c
}

// match joins a send handle and a receive handle: the transfer activity
// starts now, between the posters' hosts. When faults are active and an
// endpoint host or a route link has fail-stopped, the rendezvous fails
// instead: both handles complete with the failure attached, so a surviving
// peer observes its partner's death rather than blocking forever.
func (k *Kernel) match(sc, rc *Comm) {
	if k.faultsActive {
		if err := k.routeFailure(sc.proc.host, rc.proc.host); err != nil {
			k.failMatch(sc, rc, err)
			return
		}
	}
	act := k.startTransfer(sc.proc.host, rc.proc.host, sc.proc.name, rc.proc.name, sc.bytes)
	sc.act = act
	rc.act = act
	act.comms[0] = sc
	act.comms[1] = rc
	rc.bytes = sc.bytes
	rc.src = sc.proc.name
	rc.dst = rc.proc.name
	sc.dst = rc.proc.name
	for i, w := range sc.matchWaiters {
		k.wake(w)
		sc.matchWaiters[i] = nil
	}
	sc.matchWaiters = sc.matchWaiters[:0]
	for i, w := range rc.matchWaiters {
		k.wake(w)
		rc.matchWaiters[i] = nil
	}
	rc.matchWaiters = rc.matchWaiters[:0]
}
