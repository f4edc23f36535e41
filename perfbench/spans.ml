(* In-memory spans and counts for the traced run.

   A span is (name, start, end, parent, request id), recorded around
   one call into a layer's public function; spans of one request share
   its id.  Nothing is written until {!write}, once, at exit.  A span's
   self time is its duration minus the part of it its children cover.
   With [enabled = false] every call is a no-op, which is what
   [trace.overhead_pct] compares against. *)

type t = {
  mutable enabled : bool;
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable n : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable req : int array;
  counts : (string, int ref) Hashtbl.t;
}

let create () =
  let cap = 4096 in
  {
    enabled = true;
    names = Hashtbl.create 16;
    name_of = [||];
    n = 0;
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap (-1);
    req = Array.make cap 0;
    counts = Hashtbl.create 16;
  }

let name_id t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
    let i = Array.length t.name_of in
    Hashtbl.add t.names s i;
    t.name_of <- Array.append t.name_of [| s |];
    i

let grow t =
  let g a = Array.append a (Array.make (Array.length a) 0) in
  t.name <- g t.name;
  t.start <- g t.start;
  t.stop <- g t.stop;
  t.parent <- g t.parent;
  t.req <- g t.req

(* A finished span; returns its id (-1 when disabled). *)
let add t ~name ~req ~parent ~start ~stop =
  if not t.enabled then -1
  else begin
    if t.n = Array.length t.name then grow t;
    let i = t.n in
    t.name.(i) <- name;
    t.start.(i) <- start;
    t.stop.(i) <- stop;
    t.parent.(i) <- parent;
    t.req.(i) <- req;
    t.n <- i + 1;
    i
  end

(* Open a span now; close it with {!close}. *)
let open_ t ~name ~req ~parent =
  add t ~name ~req ~parent ~start:(Clock.now_ns ()) ~stop:0

let close t id = if id >= 0 then t.stop.(id) <- Clock.now_ns ()

let count t key k =
  if t.enabled then
    match Hashtbl.find_opt t.counts key with
    | Some r -> r := !r + k
    | None -> Hashtbl.add t.counts key (ref k)

let get_count t key = match Hashtbl.find_opt t.counts key with Some r -> !r | None -> 0

(* Self time of every span: duration minus the union of its children's
   intervals, clipped to the span. *)
let self_times t =
  let children = Array.make t.n [] in
  for i = t.n - 1 downto 0 do
    let p = t.parent.(i) in
    if p >= 0 then children.(p) <- i :: children.(p)
  done;
  Array.init t.n (fun i ->
      let s = t.start.(i) and e = t.stop.(i) in
      let kids =
        List.map (fun c -> (max s t.start.(c), min e t.stop.(c))) children.(i)
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, s) kids
      in
      e - s - covered)

(* Self times of every span called [name], in ns. *)
let self_of t self name =
  match Hashtbl.find_opt t.names name with
  | None -> [||]
  | Some id ->
    let acc = ref [] in
    for i = t.n - 1 downto 0 do
      if t.name.(i) = id then acc := float_of_int self.(i) :: !acc
    done;
    Array.of_list !acc

(* One line per span, then one per count. *)
let write t ~header path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter (fun l -> Printf.fprintf oc "# %s\n" l) header;
      output_string oc "span\tname\tstart_ns\tend_ns\tparent\treq\n";
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i t.name_of.(t.name.(i)) t.start.(i)
          t.stop.(i) t.parent.(i) t.req.(i)
      done;
      Hashtbl.iter (fun k v -> Printf.fprintf oc "count\t%s\t%d\n" k !v) t.counts)
