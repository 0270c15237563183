(** SAX-style parse events.

    The XSEED kernel builder (paper Algorithm 1), the path-tree builder and
    the NoK storage builder all consume this event stream, so a document can
    be summarized in a single parse without materializing the tree. *)

type t =
  | Start_element of string * (string * string) list
      (** Opening tag: name and attributes in document order. *)
  | End_element of string  (** Closing tag (name repeated for checking). *)
  | Text of string  (** Character data (entity references resolved). *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

(** {1 Push-style construction}

    Every structure built from a document (kernel, path tree, NoK storage)
    is a sink: [push] takes the events in document order, [finish] checks
    the stream was complete and returns the result. One parse can then feed
    several sinks at once. *)

type 'a sink = { push : t -> unit; finish : unit -> 'a }

val push_all : 'a sink -> t list -> 'a
(** Push every event of the list, then finish. *)
