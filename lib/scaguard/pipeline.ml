type analysis = {
  name : string;
  cfg : Cfg.Graph.t;
  info : Relevant.info;
  attack_graph : Attack_graph.t;
  model : Model.t;
  exec : Cpu.Exec.result;
}

let analyze ?max_paths ?max_len ?cst_config ?measurer ~name ~program exec =
  let cfg = Cfg.Graph.of_program program in
  let info = Relevant.identify cfg exec.Cpu.Exec.collector in
  let attack_graph =
    Attack_graph.build ?max_paths ?max_len cfg ~hpc:info.Relevant.hpc_of_block
      ~relevant:info.Relevant.relevant
  in
  let model = Model.build ?cst_config ?measurer ~name info attack_graph in
  { name; cfg; info; attack_graph; model; exec }

let run_and_analyze ?settings ?init ?victim ?max_paths ?max_len ?cst_config
    program =
  let exec = Cpu.Exec.run ?settings ?init ?victim program in
  analyze ?max_paths ?max_len ?cst_config ~name:(Isa.Program.name program)
    ~program exec

(* ------------------------------------------------------------------ *)
(* Batch front-end.                                                    *)

type job = {
  job_name : string;
  program : Isa.Program.t;
  settings : Cpu.Exec.settings option;
  init : (Cpu.Machine.t -> unit) option;
  victim : (Isa.Program.t * (Cpu.Machine.t -> unit)) option;
  salt : string;
}

let job ?settings ?init ?victim ?(salt = "") ~name program =
  { job_name = name; program; settings; init; victim; salt }

let seeded ~seed j =
  if j.salt = "" then { j with salt = string_of_int seed } else j

(* Fan [f] over the tasks with one Cst.measurer per worker (the per-block
   CST simulator is reused instead of reallocated), collecting results by
   index.  Task order in the output is the input order regardless of which
   worker ran what, and each task's computation is independent of every
   other's, so results are byte-identical to a sequential loop. *)
let batch ~obs ?domains n f =
  let workers = Sutil.Pool.domains_for ?domains n in
  let measurers = Array.init workers (fun _ -> Cst.measurer ()) in
  let out = Array.make n None in
  let probe = Obs.pool_probe obs ~stage:"build" in
  ignore
    (Sutil.Pool.run ?domains ?probe ~tasks:n (fun ~worker i ->
         out.(i) <- Some (f ~measurer:(measurers.(worker)) i)));
  Array.map (fun o -> Option.get o) out

(* Observe one actual model construction (cache hits never reach this):
   bump the build counter and latency histogram, and emit a sampled
   build:model span tagged with the job name.  [build] is the untimed
   construction; when observability is off this is exactly [build ()]. *)
let timed_build ~obs ~name i build =
  if Obs.tracing obs || Obs.metrics obs then begin
    let t0 = Obs.Clock.now_ns () in
    let result = build () in
    let dur_ns = Obs.Clock.elapsed_ns ~since:t0 in
    if Obs.metrics obs then begin
      Obs.Registry.incr Obs.Metrics.models_built_total;
      Obs.Registry.observe Obs.Metrics.model_build_seconds
        (Obs.Clock.ns_to_s dur_ns)
    end;
    if Obs.sampled obs i then
      Obs.emit_span obs ~cat:"build" ~args:[ ("model", name) ]
        ~name:"build:model" ~ts_ns:t0 ~dur_ns ();
    result
  end
  else build ()

let build_models_batch ?(obs = Obs.off) ?domains ?cache ?max_paths ?max_len
    ?cst_config jobs =
  let build ~measurer i () =
    let j = jobs.(i) in
    timed_build ~obs ~name:j.job_name i (fun () ->
        let exec =
          Cpu.Exec.run ?settings:j.settings ?init:j.init ?victim:j.victim
            j.program
        in
        (analyze ?max_paths ?max_len ?cst_config ~measurer ~name:j.job_name
           ~program:j.program exec)
          .model)
  in
  match cache with
  | None ->
    batch ~obs ?domains (Array.length jobs) (fun ~measurer i ->
        build ~measurer i ())
  | Some c ->
    let keys =
      Array.map
        (fun j ->
          Model_cache.key ?settings:j.settings ?cst_config ?max_paths ?max_len
            ?victim:(Option.map fst j.victim) ~salt:j.salt ~name:j.job_name
            j.program)
        jobs
    in
    (* The memory tier is read and written here, in the calling domain;
       only what it lacks fans out, to the disk tier and the builder. *)
    let models = Array.map (fun key -> Model_cache.recall ~obs c ~key) keys in
    let todo =
      Array.of_list
        (List.filter
           (fun i -> Option.is_none models.(i))
           (List.init (Array.length jobs) Fun.id))
    in
    if Array.length todo > 0 then begin
      let fetched =
        batch ~obs ?domains (Array.length todo) (fun ~measurer k ->
            let i = todo.(k) in
            Model_cache.fetch ~obs c ~key:keys.(i) (build ~measurer i))
      in
      Array.iteri
        (fun k (model, entry) ->
          let i = todo.(k) in
          Option.iter (Model_cache.remember c ~key:keys.(i)) entry;
          models.(i) <- Some model)
        fetched
    end;
    Array.map Option.get models
