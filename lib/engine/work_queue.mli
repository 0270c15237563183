(** One bounded FIFO under one mutex: the pool's queue of chunks,
    shared by every worker domain, and the shadow auditor's queue of
    audit samples ({!Auditor}).

    The pool dispatches {e chunks} (contiguous slices of a batch), one
    queue operation per chunk, so a single mutex covers the ring. Its
    submitter {!push}es a batch's queued chunks into a ring sized to the
    largest batch plan, which it has emptied before each submission, so
    a push never finds it full; any worker domain pops the head, and the
    submitter itself may take it back without blocking ({!try_pop}). The
    auditor's serving threads {!try_push} samples (a [`Full] ring sheds
    one) and its audit domain pops them. Producers never wait; a consumer
    waits while the ring is empty. A push wakes one blocked consumer
    ([Condition.signal]); {!close} wakes every one: pending items still
    drain, further pushes are refused, and poppers see [None] once the
    ring is empty — the worker shutdown signal.

    The mutex's acquire/release pairs also order memory between producers
    and consumers, which the pool relies on for publishing its shared EPT
    and each chunk's fields to the worker that pops it. *)

type 'a t

val create : capacity:int -> 'a t
(** A ring of [capacity] chunk slots; no allocation after creation.
    @raise Invalid_argument when [capacity] < 1. *)

val length : 'a t -> int
(** Occupied slots at the instant of the read. *)

val push : 'a t -> 'a -> unit
(** Enqueue at the tail of a ring its caller has sized to have room.
    @raise Invalid_argument when the ring is full or closed: the caller's
    bound does not hold, and the item was not enqueued. *)

val try_push : 'a t -> 'a -> [ `Ok | `Full | `Closed ]
(** Non-blocking enqueue for a producer that may find the ring full:
    [`Full] when the ring has no free slot, [`Closed] after {!close}; in
    both the item was not enqueued. *)

val pop : 'a t -> 'a option
(** Dequeue the head, blocking while the ring is empty. [None] only when
    the queue is closed and drained. *)

val try_pop : 'a t -> 'a option
(** Non-blocking dequeue: the head, or [None] at once when the ring is
    empty (closed or not). Counts in [pops] like {!pop}, never in
    [pop_waits]. The pool's submitter drains its own batch's queued chunks
    with it before it waits for the rest. *)

val close : 'a t -> unit
(** Refuse further pushes and wake every blocked consumer. Idempotent.
    Already-queued items still drain through {!pop}.

    {b Close/blocked-pop race semantics} (pinned by tests): a consumer
    blocked in {!pop} is woken and returns [None] if the ring is empty;
    if items remain, blocked and subsequent consumers drain them and only
    then see [None]. The wait counters ({!stats}) still record the blocked
    interval that close cut short. *)

val closed : 'a t -> bool

(** {1 Contention accounting}

    The queue counts its own traffic and its consumers' blocking time
    under its lock, so the numbers are exact. The monotonic clock is read
    only when a pop actually blocks — an uncontended push or pop costs
    nothing beyond the mutex it already takes. *)

type stats = {
  pushes : int;  (** items successfully enqueued *)
  pops : int;  (** items successfully dequeued *)
  pop_waits : int;  (** pops that found the ring empty and blocked *)
  pop_wait_s : float;  (** total consumer blocking time, seconds *)
  max_occupancy : int;  (** high-water mark of occupied slots *)
}

val stats : 'a t -> stats
(** A consistent snapshot, taken under the queue lock. *)
