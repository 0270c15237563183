(** Query canonicalization for the serving engine's estimate cache.

    Two spellings of the same query — predicate order, duplicated
    predicates, whitespace, redundant ['.'] self steps (dropped by the
    parser) — must land on the same cache slot. [canonicalize] maps an AST
    to a normal form (predicates recursively canonicalized, then sorted and
    deduplicated; likewise value predicates); [of_ast] renders that normal
    form back to concrete syntax and hashes it with the same incremental
    scheme the HET uses ({!Core.Path_hash.extend} folded over the bytes), so
    a key is cheap to compare and stable across runs. *)

val canonicalize : Xpath.Ast.t -> Xpath.Ast.t
(** Normal form; idempotent and estimate-preserving (predicates are
    conjunctive, so order and multiplicity do not matter). A step already
    in normal form is returned as it is, so a query spelled canonically
    allocates nothing here. *)

type key = {
  hash : int;  (** 32-bit incremental hash of [text] *)
  text : string;  (** the canonical spelling, [Xpath.Ast.to_string] of the
                      canonical AST; the authoritative cache key *)
}

val normal_form : Xpath.Ast.t -> Xpath.Ast.t * key
(** {!canonicalize}, and the key of its result, in one pass: the serving
    path's canonicalization, whose normal form also feeds the matcher. *)

val of_ast : Xpath.Ast.t -> key
(** The key of {!canonicalize}[ ast]. *)

val of_string : string -> (key, Core.Error.t) result
(** Parse then {!of_ast}; a syntax error is [Malformed_query]. *)

val equal : key -> key -> bool
(** Text equality — the hash is a fast filter, never the verdict. *)
