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
   CST simulator is reused instead of reallocated) and, when [obs] has
   metrics on, one latency record per worker, collecting results by index
   and the records merged.  Task order in the output is the input order
   regardless of which worker ran what, and each task's computation is
   independent of every other's, so results are byte-identical to a
   sequential loop. *)
let batch ~obs ?domains n f =
  let workers = Sutil.Pool.domains_for ?domains n in
  let measurers = Array.init workers (fun _ -> Cst.measurer ()) in
  let lats =
    if Obs.metrics obs then
      Array.init workers (fun _ -> Some (Obs.new_latency ()))
    else [||]
  in
  let out = Array.make n None in
  let probe = Obs.pool_probe obs ~stage:"build" in
  ignore
    (Sutil.Pool.run ?domains ?probe ~tasks:n (fun ~worker i ->
         let lat = if Obs.metrics obs then lats.(worker) else None in
         out.(i) <- Some (f ~measurer:measurers.(worker) ~lat i)));
  (Array.map (fun o -> Option.get o) out, Obs.merge_latency obs lats)

(* Observe one actual model construction (cache hits never reach this):
   time it into the worker's latency record, and emit a sampled
   build:model span tagged with the job name.  [build] is the untimed
   construction; when observability is off this is exactly [build ()]. *)
let timed_build ~obs ~lat ~name i build =
  if Obs.tracing obs || Obs.metrics obs then begin
    let t0 = Obs.Clock.now_ns () in
    let result = build () in
    let dur_ns = Obs.Clock.elapsed_ns ~since:t0 in
    (match lat with
    | None -> ()
    | Some (l : Obs.latency) ->
      Obs.Hist.observe_ns l.model_build (Int64.to_int dur_ns));
    if Obs.sampled obs i then
      Obs.emit_span obs ~cat:"build" ~args:[ ("model", name) ]
        ~name:"build:model" ~ts_ns:t0 ~dur_ns ();
    result
  end
  else build ()

let build_models_batch ?(obs = Obs.off) ?domains ?cache ?max_paths ?max_len
    ?cst_config jobs =
  let build ~measurer ~lat i () =
    let j = jobs.(i) in
    timed_build ~obs ~lat ~name:j.job_name i (fun () ->
        let exec =
          Cpu.Exec.run ?settings:j.settings ?init:j.init ?victim:j.victim
            j.program
        in
        let model =
          (analyze ?max_paths ?max_len ?cst_config ~measurer ~name:j.job_name
             ~program:j.program exec)
            .model
        in
        (* the model keeps nothing of the run: its collector serves the
           worker's next job *)
        Cpu.Exec.recycle exec;
        model)
  in
  match cache with
  | None ->
    batch ~obs ?domains (Array.length jobs) (fun ~measurer ~lat i ->
        build ~measurer ~lat i ())
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
    let fetched, latency =
      if Array.length todo = 0 then ([||], Obs.merge_latency obs [||])
      else
        batch ~obs ?domains (Array.length todo) (fun ~measurer ~lat k ->
            let i = todo.(k) in
            Model_cache.fetch ~obs c ~key:keys.(i) (build ~measurer ~lat i))
    in
    Array.iteri
      (fun k (model, entry) ->
        let i = todo.(k) in
        Option.iter (Model_cache.remember c ~key:keys.(i)) entry;
        models.(i) <- Some model)
      fetched;
    (Array.map Option.get models, latency)
