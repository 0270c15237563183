type 'v node = {
  key : string;
  mutable value : 'v;
  mutable prev : 'v node option;  (* toward the MRU end *)
  mutable next : 'v node option;  (* toward the LRU end *)
}

type 'v t = {
  cap : int;
  table : (string, 'v node) Hashtbl.t;
  mutable head : 'v node option;  (* most recently used *)
  mutable tail : 'v node option;  (* least recently used *)
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable invalidations : int;
}

let create ~capacity =
  if capacity < 1 then
    invalid_arg (Printf.sprintf "Lru_cache.create: capacity %d < 1" capacity);
  { cap = capacity;
    table = Hashtbl.create (min capacity 64);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
    invalidations = 0 }

let capacity t = t.cap
let length t = Hashtbl.length t.table
let mem t key = Hashtbl.mem t.table key

let peek t key =
  Option.map (fun node -> node.value) (Hashtbl.find_opt t.table key)

let unlink t node =
  (match node.prev with
   | Some p -> p.next <- node.next
   | None -> t.head <- node.next);
  (match node.next with
   | Some n -> n.prev <- node.prev
   | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some node ->
    t.hits <- t.hits + 1;
    unlink t node;
    push_front t node;
    Some node.value
  | None ->
    t.misses <- t.misses + 1;
    None

let drop ?(counter = `Invalidation) t node =
  unlink t node;
  Hashtbl.remove t.table node.key;
  match counter with
  | `Eviction -> t.evictions <- t.evictions + 1
  | `Invalidation -> t.invalidations <- t.invalidations + 1

let put t key value =
  (match Hashtbl.find_opt t.table key with
   | Some node ->
     node.value <- value;
     unlink t node;
     push_front t node
   | None ->
     if Hashtbl.length t.table >= t.cap then
       Option.iter (drop ~counter:`Eviction t) t.tail;
     let node = { key; value; prev = None; next = None } in
     Hashtbl.replace t.table key node;
     push_front t node);
  t.insertions <- t.insertions + 1

let remove t key =
  match Hashtbl.find_opt t.table key with
  | Some node -> drop t node
  | None -> ()

let clear t =
  t.invalidations <- t.invalidations + Hashtbl.length t.table;
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None

type counters = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  invalidations : int;
}

let counters (t : _ t) =
  { hits = t.hits;
    misses = t.misses;
    insertions = t.insertions;
    evictions = t.evictions;
    invalidations = t.invalidations }
