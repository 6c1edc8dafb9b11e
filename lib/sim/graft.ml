let slots : (string, Obj.t) Hashtbl.t = Hashtbl.create 64

let register (ec : Obj.Extension_constructor.t) =
  let name = Obj.Extension_constructor.name ec in
  match Hashtbl.find_opt slots name with
  | Some existing when existing == Obj.repr ec -> ()
  | Some _ -> invalid_arg ("Graft.register: duplicate slot name " ^ name)
  | None -> Hashtbl.add slots name (Obj.repr ec)

let registered () = Hashtbl.length slots

type stats = { patched : int; visited : int }

(* Closinfo word of a closure block (field 1), seen as an OCaml int:
   [arity : 8][start-of-environment : int_size - 8]. *)
let startenv_mask = (1 lsl (Sys.int_size - 8)) - 1

(* Physical identity of a block is its ADDRESS. Hashing *contents* is
   hopeless here: a restored cloud checkpointed at t=0 is millions of
   physically distinct but bit-identical blocks — zeroed boxed numbers,
   [ref 0] counters, fresh per-host records — and any content
   hash piles each such class into one probe chain where [==] fails all the
   way down, turning the walk quadratic (restores that took seconds at 960
   hosts ran for tens of minutes at 10k). The address is the one thing that
   separates physical twins.

   [key] is the address divided by the word size, returned by a [noalloc]
   C stub as a well-formed immediate: OCaml itself cannot read a pointer's
   bits without boxing them (or leaving a pointer-shaped word posing as an
   int). Distinct blocks have distinct keys, and no key is 0.

   Address stability: {!repair} promotes the graph with [Gc.minor ()]
   first, and OCaml 5's major heap is non-moving (compaction only happens
   on an explicit [Gc.compact], which the walk never calls) — so keys are
   stable while the walk runs. *)
external key : Obj.t -> int = "sw_graft_key" [@@noalloc]

(* The closure block enclosing an infix pointer, found without the boxed
   [Int32] offset [Obj.add_offset] would allocate. *)
external enclosing_closure : Obj.t -> Obj.t = "sw_graft_enclosing_closure"
  [@@noalloc]

(* The visited set: open addressing with linear probing over a flat
   [int array] of keys, 0 marking an empty cell, doubled at 50% load.
   Addresses are sequentially allocated, so unmixed keys would fill runs of
   adjacent cells and make probe chains long: multiply by a large odd
   constant and fold the high half down before masking. *)
module Visited = struct
  type t = { mutable cells : int array; mutable count : int }

  let create capacity = { cells = Array.make capacity 0; count = 0 }

  let home k mask =
    let h = k * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 32)) land mask

  (* The cell holding [k], or the empty cell where it belongs. *)
  let rec probe cells mask k i =
    let c = Array.unsafe_get cells i in
    if c = 0 || c = k then i else probe cells mask k ((i + 1) land mask)

  let grow t =
    let old = t.cells in
    let cells = Array.make (2 * Array.length old) 0 in
    let mask = Array.length cells - 1 in
    for j = 0 to Array.length old - 1 do
      let k = Array.unsafe_get old j in
      if k <> 0 then Array.unsafe_set cells (probe cells mask k (home k mask)) k
    done;
    t.cells <- cells

  (* [add t k] inserts [k]; [false] when it was already present. *)
  let add t k =
    let cells = t.cells in
    let mask = Array.length cells - 1 in
    let i = probe cells mask k (home k mask) in
    Array.unsafe_get cells i = 0
    && begin
         Array.unsafe_set cells i k;
         t.count <- t.count + 1;
         if 2 * t.count > Array.length cells then grow t;
         true
       end
end

(* A growable array of heap values: the work stack, and the two columns of
   the slot memo. *)
module Vec = struct
  type t = { mutable items : Obj.t array; mutable len : int }

  let create capacity = { items = Array.make capacity (Obj.repr 0); len = 0 }

  let push t v =
    if t.len = Array.length t.items then begin
      let items = Array.make (2 * t.len) (Obj.repr 0) in
      Array.blit t.items 0 items 0 t.len;
      t.items <- items
    end;
    Array.unsafe_set t.items t.len v;
    t.len <- t.len + 1

  let pop t =
    t.len <- t.len - 1;
    Array.unsafe_get t.items t.len
end

(* Whether an [Object_tag] block is an extension-constructor slot: exactly
   two fields, a name string and an id int. Real (camlinternalOO) objects
   carry a class block, not a string, in field 0, so they are never mistaken
   for slots. *)
let is_slot f =
  Obj.size f = 2
  && (let n = Obj.field f 0 in
      Obj.is_block n && Obj.tag n = Obj.string_tag)
  && Obj.is_int (Obj.field f 1)

(* Marshal preserves sharing, so an image holds one copy of each slot, and
   every payload built from that constructor points at it. Each distinct
   copy is resolved by name once; later references find it here by physical
   identity. [lives.(k)] is the live slot for [copies.(k)], or the copy
   itself when its name is unregistered. A binary declares a few dozen
   constructors at most, so a linear scan beats hashing. *)
type memo = { copies : Vec.t; lives : Vec.t; mutable unknown : string list }

(* The live slot for [f], searching the memo from entry [k]. *)
let rec resolve memo f k =
  if k = memo.copies.Vec.len then begin
    let name : string = Obj.obj (Obj.field f 0) in
    let live =
      match Hashtbl.find_opt slots name with
      | Some live -> live
      | None ->
          memo.unknown <- name :: memo.unknown;
          f
    in
    Vec.push memo.copies f;
    Vec.push memo.lives live;
    live
  end
  else if Array.unsafe_get memo.copies.Vec.items k == f then
    Array.unsafe_get memo.lives.Vec.items k
  else resolve memo f (k + 1)

let repair root =
  (* Promote the freshly-unmarshaled graph out of the nursery so every
     block the walk keys on sits in the non-moving major heap. *)
  Gc.minor ();
  let visited = Visited.create 65536 in
  let stack = Vec.create 4096 in
  let memo = { copies = Vec.create 16; lives = Vec.create 16; unknown = [] } in
  let patched = ref 0 in
  Vec.push stack root;
  while stack.Vec.len > 0 do
    let v = Vec.pop stack in
    if Obj.is_block v then begin
      (* An infix pointer aims into the middle of a closure block; the
         enclosing closure is the unit of visiting and scanning. *)
      let v =
        if Obj.tag v = Obj.infix_tag then enclosing_closure v else v
      in
      if Visited.add visited (key v) then begin
        let tag = Obj.tag v in
        if tag < Obj.no_scan_tag then begin
          let size = Obj.size v in
          let start =
            if tag = Obj.closure_tag then
              (Obj.obj (Obj.field v 1) : int) land startenv_mask
            else 0
          in
          (* Last field first, so fields pop in order: the order Marshal
             laid their blocks out in, which the reads then follow. *)
          for i = size - 1 downto start do
            let f = Obj.field v i in
            if Obj.is_block f then begin
              let ftag = Obj.tag f in
              if ftag = Obj.object_tag && is_slot f then begin
                let live = resolve memo f 0 in
                if f != live then begin
                  Obj.set_field v i live;
                  incr patched
                end
              end
              else if ftag < Obj.no_scan_tag then
                (* No-scan leaves (strings, boxed scalars, float arrays)
                   have no fields to walk and cannot be slots — keep them
                   out of the visited set, where they are the bulk of the
                   graph. *)
                Vec.push stack f
            end
          done
        end
      end
    end
  done;
  match List.sort_uniq String.compare memo.unknown with
  | [] -> Ok { patched = !patched; visited = visited.Visited.count }
  | names -> Error names
