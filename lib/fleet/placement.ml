module Json = Ascend_util.Json

type entry = {
  model : string;
  weight_bytes : int;
  kv_bytes : int;
  home : int;
  replicas : int list;
}

type t = { nodes : int; entries : entry list }

(* FNV-1a over the model name, reduced mod nodes: a stable home
   assignment that spreads cold models across the fleet without any
   dependence on [Hashtbl.hash] internals *)
let stable_home ~nodes name =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
    name;
  !h mod nodes

let build ?hbm_bytes_per_node ~nodes specs =
  if nodes < 1 then invalid_arg "Placement.build: nodes < 1";
  let names = List.map (fun (m, _, _, _) -> m) specs in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Placement.build: duplicate model names";
  let entries =
    List.map
      (fun (model, weight_bytes, kv_bytes, replicas) ->
        if weight_bytes < 0 then
          invalid_arg "Placement.build: negative weight bytes";
        if kv_bytes < 0 then
          invalid_arg "Placement.build: negative kv bytes";
        if replicas < 0 then
          invalid_arg "Placement.build: negative replica count";
        (match hbm_bytes_per_node with
        | Some cap when weight_bytes + kv_bytes > cap ->
          (* no replica choice can serve this model: its weights plus
             its reserved KV-cache working set overflow every node's
             HBM on their own *)
          invalid_arg
            (Printf.sprintf
               "Placement.build: model %s weights (%d B) + kv cache (%d B) \
                exceed a node's %d B HBM — unservable on any node"
               model weight_bytes kv_bytes cap)
        | _ -> ());
        let home = stable_home ~nodes model in
        let count =
          if replicas = 0 || replicas >= nodes then nodes else replicas
        in
        let replicas =
          List.sort compare (List.init count (fun i -> (home + i) mod nodes))
        in
        { model; weight_bytes; kv_bytes; home; replicas })
      specs
  in
  { nodes; entries }

(* the verifier's neutral placement type: same (model, footprint,
   replica set) triples, plus the routing policy that decides which
   nodes a model can page in on.  The footprint handed to the verifier
   is weights + reserved KV cache, so its HBM overcommit lint counts
   decode-class serving state too. *)
let verify_plan ?hbm_bytes_per_node ~policy t =
  {
    Ascend_verify.Cluster.plan_name =
      Printf.sprintf "%d-node fleet placement" t.nodes;
    nodes = t.nodes;
    hbm_bytes_per_node;
    policy;
    models =
      List.map
        (fun e -> (e.model, e.weight_bytes + e.kv_bytes, e.replicas))
        t.entries;
  }

let find t model =
  match List.find_opt (fun e -> e.model = model) t.entries with
  | Some e -> e
  | None -> invalid_arg ("Placement.find: unknown model " ^ model)

let resident t ~model ~node = List.mem node (find t model).replicas

let to_json t =
  Json.List
    (List.map
       (fun e ->
         Json.Obj
           [
             ("model", Json.String e.model);
             ("weight_bytes", Json.Int e.weight_bytes);
             ("kv_bytes", Json.Int e.kv_bytes);
             ("home", Json.Int e.home);
             ( "replicas",
               Json.List (List.map (fun n -> Json.Int n) e.replicas) );
           ])
       t.entries)
