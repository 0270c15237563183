let mask = 0xFFFFFFFF

let empty = 0x811C9DC5 land mask (* FNV offset basis *)

(* FNV-1a style step over small ints; labels are offset so label 0 is
   distinguishable from structural sentinels. *)
let step h v = (h lxor (v land mask)) * 0x01000193 land mask

let extend h label = step h (label + 16)

let of_labels labels = List.fold_left extend empty labels

let open_bracket = 1
let close_bracket = 2
let slash = 3

let branching_of_sorted ~parent ~predicates ~next =
  let h = ref (extend empty parent) in
  for i = 0 to Array.length predicates - 1 do
    h := step (extend (step !h open_bracket) predicates.(i)) close_bracket
  done;
  extend (step !h slash) next

let sorted predicates = Array.of_list (List.sort Int.compare predicates)

let branching ~parent ~predicates ~next =
  branching_of_sorted ~parent ~predicates:(sorted predicates) ~next

(* Canonical textual keys: the un-hashed spelling of what a hash covers, so
   the HET can tell two colliding paths apart. Space-free by construction
   (label ids and '[,]/' only), so they survive the HET's space-separated
   dump format. *)

let key_of_labels labels = String.concat "/" (List.map string_of_int labels)

let branching_key_of_sorted ~parent ~predicates ~next =
  let buf = Buffer.create 16 in
  Buffer.add_string buf (string_of_int parent);
  Buffer.add_char buf '[';
  Array.iteri
    (fun i q ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int q))
    predicates;
  Buffer.add_string buf "]/";
  Buffer.add_string buf (string_of_int next);
  Buffer.contents buf

let branching_key ~parent ~predicates ~next =
  branching_key_of_sorted ~parent ~predicates:(sorted predicates) ~next
