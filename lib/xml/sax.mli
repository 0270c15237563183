(** A small, dependency-free streaming XML parser.

    Supports the features the corpora in the paper need: elements with
    attributes, character data, comments, CDATA sections, processing
    instructions, DOCTYPE declarations (skipped, including an internal
    subset), the five predefined entities and numeric character references.
    Namespaces are not interpreted: a qualified name is treated as an opaque
    label, which is how the paper treats element names too. *)

exception Malformed of { position : int; message : string }
(** Raised on ill-formed input. [position] is a byte offset. *)

exception Limit of { position : int; message : string }
(** Raised when a {!limits} resource guard fires. Distinct from {!Malformed}
    because the input may be well-formed — it is merely too big for the
    configured envelope. *)

(** {1 Resource guards}

    Hostile or accidental pathological inputs (a million nested elements, a
    gigabyte attribute) are rejected during the scan, before they can
    exhaust memory or blow the stack in downstream consumers that recurse
    over document structure. *)

type limits = {
  max_depth : int;  (** maximum open-element nesting depth *)
  max_attribute_length : int;  (** decoded bytes per attribute value *)
  max_text_length : int;  (** decoded bytes per text node *)
  max_entity_length : int;  (** bytes between ['&'] and [';'] *)
  max_input_bytes : int;  (** whole-document size, checked up front *)
}

val default_limits : limits
(** 1M depth, 1 MiB attributes, 16 MiB text nodes, 16-byte entities,
    1 GiB input — far above anything the paper's corpora produce. *)

val fold :
  ?obs:Obs.t -> ?limits:limits -> string -> init:'a -> f:('a -> Event.t -> 'a) -> 'a
(** [fold input ~init ~f] parses [input] and folds [f] over its events.
    Checks well-formedness (tag balance, single root). When [obs] is given,
    publishes [sax.events], [sax.elements], [sax.text_nodes] and
    [sax.max_depth] counters after the parse. [limits] defaults to
    {!default_limits}.
    @raise Malformed on bad input.
    @raise Limit when a resource guard fires. *)

type error = { position : int; message : string; kind : [ `Malformed | `Limit ] }

val fold_result :
  ?obs:Obs.t ->
  ?limits:limits ->
  string ->
  init:'a ->
  f:('a -> Event.t -> 'a) ->
  ('a, error) result
(** Like {!fold} but returns parse failures as values. Exceptions raised by
    [f] itself still propagate. *)

val iter : ?obs:Obs.t -> ?limits:limits -> string -> f:(Event.t -> unit) -> unit

val into : ?obs:Obs.t -> string -> 'a Event.sink -> 'a
(** Parse [input] into a sink: push every event, then finish. *)

val events : string -> Event.t list
(** All events of [input], in document order. Convenience for tests. *)
