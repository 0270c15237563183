(** The running example of the paper (Figure 2).

    [document] is an XML instance whose XSEED kernel is exactly the kernel of
    Figure 2(b); Example 2's edge labels and Example 3's estimation table are
    checked against it in the test suite, and the quickstart example walks
    through it. *)

val document : string
(** The XML text of the Figure 2(a) tree (structure only). *)

val tree : unit -> Xml.Tree.t
