(* Host wall-clock spans recorded around the benchmark's own calls into
   the library's layers.  Spans live in memory while a workload runs
   and are written out once at the end, so recording costs one clock
   read and one small allocation per call.  Nothing here reaches the
   simulator's deterministic outputs. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for the root *)
  start : float;
  stop : float;
}

type t = {
  workload : string;
  mutable spans : span list;  (* completion order, newest first *)
  mutable stack : int list;
  mutable next : int;
}

let now = Unix.gettimeofday
let create workload = { workload; spans = []; stack = []; next = 0 }

let with_ t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let start = now () in
  let finish () =
    let stop = now () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; name; parent; start; stop } :: t.spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let spans t = List.rev t.spans
let duration s = s.stop -. s.start

(* inclusive seconds and call count over every span with this name *)
let total t name =
  List.fold_left
    (fun (s, n) sp -> if sp.name = name then (s +. duration sp, n + 1) else (s, n))
    (0., 0) t.spans

let durations t name =
  List.filter_map
    (fun sp -> if sp.name = name then Some (duration sp) else None)
    (spans t)

(* spans in start order: a parent always starts before its children *)
let by_start t = List.sort (fun a b -> compare a.id b.id) t.spans
let roots t = List.filter (fun sp -> sp.parent = -1) (by_start t)

(* Self time per name over the tree under [root], in start order.  A
   span's self time is its duration minus its direct children's; the
   root's own self time is the unattributed remainder.  By construction
   the self times add up to the root's duration. *)
let self_times t root =
  let in_tree = Hashtbl.create 64 in
  Hashtbl.replace in_tree root.id ();
  let tree =
    List.filter
      (fun sp ->
        let inside = sp.id = root.id || Hashtbl.mem in_tree sp.parent in
        if inside then Hashtbl.replace in_tree sp.id ();
        inside)
      (by_start t)
  in
  let children = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt children sp.parent) in
      Hashtbl.replace children sp.parent (prev +. duration sp))
    tree;
  let by_name = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun sp ->
      let self =
        duration sp -. Option.value ~default:0. (Hashtbl.find_opt children sp.id)
      in
      match Hashtbl.find_opt by_name sp.name with
      | Some (s, n) -> Hashtbl.replace by_name sp.name (s +. self, n + 1)
      | None ->
        order := sp.name :: !order;
        Hashtbl.replace by_name sp.name (self, 1))
    tree;
  List.rev_map
    (fun name ->
      let s, n = Hashtbl.find by_name name in
      (name, n, s))
    !order

(* one JSON object per line, times relative to the first span's start *)
let write_jsonl path t =
  let module J = Ascend.Util.Json in
  let t0 = match by_start t with first :: _ -> first.start | [] -> 0. in
  let oc = open_out path in
  List.iter
    (fun sp ->
      output_string oc
        (J.to_string
           (J.Obj
              [
                ("id", J.Int sp.id);
                ("name", J.String sp.name);
                ("parent", J.Int sp.parent);
                ("start_s", J.Float (sp.start -. t0));
                ("end_s", J.Float (sp.stop -. t0));
                ("workload", J.String t.workload);
              ]));
      output_char oc '\n')
    (spans t);
  close_out oc
