(** Recursive-descent parser for the XPath fragment of {!Ast}.

    Grammar (whitespace ignored between tokens):
    {v
    path      ::= ("/" | "//") step (("/" | "//") step)*
    step      ::= test predicate*
    test      ::= NAME | "*"
    predicate ::= "[" relative "]"
    relative  ::= first (("/" | "//") step)*
    first     ::= step | ".//" step
    v}
    A predicate's leading step uses the child axis unless written [.//].
    A numeric literal in a value predicate may carry an exponent
    ([1e+15]); one beyond the finite floats is an error. *)

exception Error of { position : int; message : string }

val parse : string -> Ast.t
(** @raise Error on a syntax error. *)

val parse_opt : string -> Ast.t option

type error = { position : int; message : string }

val parse_result : string -> (Ast.t, error) result
(** Like {!parse} but returns the syntax error as a value; never raises. *)
