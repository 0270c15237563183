(** One bounded FIFO under one mutex: the pool's queue of chunks,
    shared by every worker domain, and the shadow auditor's queue of
    audit samples ({!Auditor}).

    The pool dispatches {e chunks} (contiguous slices of a batch), one
    queue operation per chunk, so a single mutex covers the ring. The
    auditor's serving threads [try_push] samples (a [`Full] ring sheds
    one) and its audit domain [pop]s them.
    Producers push at the tail (blocking while the ring is full, which
    backpressures clients instead of growing memory); any worker domain
    pops the head, and the producer itself may take it back without
    blocking ({!try_pop}). A push wakes one blocked consumer and a pop one
    blocked producer ([Condition.signal]); {!close} wakes everyone: pending chunks
    still drain, further pushes are refused, and poppers see [None] once
    the ring is empty — the worker shutdown signal.

    The mutex's acquire/release pairs also order memory between producers
    and consumers, which the pool relies on for publishing its shared EPT
    and each chunk's fields to the worker that pops it. *)

type 'a t

val create : capacity:int -> 'a t
(** A ring of [capacity] chunk slots; no allocation after creation.
    @raise Invalid_argument when [capacity] < 1. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Occupied slots at the instant of the read. *)

val push : 'a t -> 'a -> bool
(** Enqueue at the tail, blocking while the ring is full. [false] when the
    queue is (or becomes) closed — the item was not enqueued. *)

val try_push : 'a t -> 'a -> [ `Ok | `Full | `Closed ]
(** Non-blocking enqueue: [`Full] immediately when the ring has no free
    slot (the item was not enqueued), [`Closed] after {!close}. The
    admission primitive for shed-newest load shedding — a producer that
    would have blocked can answer "overloaded" instead. *)

val pop : 'a t -> 'a option
(** Dequeue the head, blocking while the ring is empty. [None] only when
    the queue is closed and drained. *)

val try_pop : 'a t -> 'a option
(** Non-blocking dequeue: the head, or [None] at once when the ring is
    empty (closed or not). Counts in [pops] like {!pop}, never in
    [pop_waits]. The pool's submitter drains its own batch's queued chunks
    with it before it waits for the rest. *)

val close : 'a t -> unit
(** Refuse further pushes and wake all blocked producers and consumers.
    Idempotent. Already-queued chunks still drain through {!pop}.

    {b Close/blocked-operation race semantics} (pinned by tests): a
    producer blocked in {!push} on a full ring is woken and returns
    [false] — its item is {e never} enqueued, even though slots may later
    free up; a {!try_push} after close returns [`Closed]. A consumer
    blocked in {!pop} is woken and returns [None] if the ring is empty;
    if chunks remain, blocked and subsequent consumers drain them and only
    then see [None]. The wait counters ({!stats}) still record the blocked
    interval that close cut short. *)

val closed : 'a t -> bool

(** {1 Contention accounting}

    The queue counts its own traffic and blocking time under its lock, so
    the numbers are exact. The monotonic clock is read only when an
    operation actually blocks — an uncontended push or pop costs nothing
    beyond the mutex it already takes. *)

type stats = {
  pushes : int;  (** chunks successfully enqueued *)
  pops : int;  (** chunks successfully dequeued *)
  push_waits : int;  (** pushes that found the ring full and blocked *)
  pop_waits : int;  (** pops that found the ring empty and blocked *)
  push_wait_s : float;  (** total producer blocking time, seconds *)
  pop_wait_s : float;  (** total consumer blocking time, seconds *)
  max_occupancy : int;  (** high-water mark of occupied slots *)
}

val stats : 'a t -> stats
(** A consistent snapshot, taken under the queue lock. *)
