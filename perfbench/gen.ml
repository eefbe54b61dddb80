(* Seeded inputs for the workloads.  Everything here is input
   generation: it runs before set-up and outside every timed phase, and the
   same seed always yields the same programs, models, labels and request
   script.  Only the random draws vary with the seed; every size is a fixed
   count. *)

module D = Workloads.Dataset
module L = Workloads.Label

(* One process, one domain, one connection: the configuration the numbers
   are defined for.  Everything else is the library default (index policy
   [auto], which serve-mixed overrides; pruning on; unbanded DTW). *)
let config = { Scaguard.Config.default with Scaguard.Config.domains = Some 1 }

type target = { job : Scaguard.Pipeline.job; attack : bool }
(** One program to screen, with the label its verdict is scored against. *)

let job_of ~name (s : D.sample) =
  Scaguard.Pipeline.job ?settings:s.D.settings ~init:s.D.init
    ?victim:s.D.victim ~name s.D.program

(* The representative PoC of each family, as in the paper's "one PoC per
   attack type" repository. *)
let poc_spec = function
  | L.Fr_family -> Workloads.Attacks.flush_reload ~style:Workloads.Attacks.Iaik ()
  | L.Pp_family -> Workloads.Attacks.prime_probe ~style:Workloads.Attacks.Iaik ()
  | L.Spectre_fr ->
    Workloads.Attacks.spectre_fr ~style:Workloads.Attacks.Classic ()
  | L.Spectre_pp -> Workloads.Attacks.spectre_pp ()
  | L.Benign -> invalid_arg "benign has no PoC"

(* (family, job) for each family's harnessed PoC *)
let poc_jobs rng =
  List.map
    (fun l ->
      let s = D.with_harness ~rng (D.of_spec (poc_spec l)) in
      (L.to_string l, job_of ~name:("poc-" ^ s.D.name) s))
    L.attack_labels

(* Each family's base PoCs, with the round ranges the dataset draws. *)
let bases =
  let module A = Workloads.Attacks in
  function
  | L.Fr_family ->
    [
      ((fun rounds -> A.flush_reload ~rounds ~style:A.Iaik ()), 10, 22);
      ((fun rounds -> A.flush_reload ~rounds ~style:A.Mastik ()), 10, 22);
      ((fun rounds -> A.flush_reload ~rounds ~style:A.Nepoche ()), 10, 22);
      ((fun rounds -> A.flush_flush ~rounds ()), 10, 22);
      ((fun rounds -> A.evict_reload ~rounds ()), 7, 14);
    ]
  | L.Pp_family ->
    [
      ((fun rounds -> A.prime_probe ~rounds ~style:A.Iaik ()), 7, 14);
      ((fun rounds -> A.prime_probe ~rounds ~style:A.Jzhang ()), 7, 14);
    ]
  | L.Spectre_fr ->
    [
      ((fun rounds -> A.spectre_fr ~rounds ~style:A.Idea ()), 8, 16);
      ((fun rounds -> A.spectre_fr ~rounds ~style:A.Good ()), 8, 16);
      ((fun rounds -> A.spectre_fr ~rounds ~style:A.Classic ()), 8, 16);
    ]
  | L.Spectre_pp -> [ ((fun rounds -> A.spectre_pp ~rounds ()), 7, 14) ]
  | L.Benign -> invalid_arg "benign has no PoC"

let intensities = Workloads.Mutate.[| light; default_intensity; heavy |]

(* (family, sample) for [per_family] mutated, harnessed attacks of every
   family, built as the dataset builds them but cycling through every
   (base PoC, mutation intensity) pair instead of drawing them, so the mix
   of attack kinds does not move with the seed.  Rounds, harness kernels
   and the mutations themselves are still drawn. *)
let mutants rng ~per_family =
  List.concat_map
    (fun l ->
      let bs = Array.of_list (bases l) in
      let nb = Array.length bs in
      List.init per_family (fun i ->
          let r = Sutil.Rng.split rng in
          let make, lo, hi = bs.(i mod nb) in
          let base = D.with_harness ~rng:r (D.of_spec (make (Sutil.Rng.in_range r lo hi))) in
          let name = Printf.sprintf "%s-mut%03d" base.D.name i in
          let intensity = intensities.(i / nb mod Array.length intensities) in
          (L.to_string l, { base with D.name; program = Workloads.Mutate.mutate ~intensity ~rng:r ~name base.D.program })))
    L.attack_labels

(* [count] benign programs in Table III's category proportions
   (SPEC:LeetCode:Encryption:Server = 12:230:150:8, the weights the
   dataset draws with; its interface does not export them), cycling
   through the families of each category.  The dataset's own sampler
   draws every category and family at random; fixing the mix
   here keeps the cost profile of the benign half from moving with the
   seed.  Each program's parameters, and whether it is lightly mutated,
   are still drawn. *)
let benign rng ~count =
  let weights = [ ("SPEC", 12); ("LeetCode", 230); ("Encryption", 150); ("Server", 8) ] in
  let total = List.fold_left (fun a (_, w) -> a + w) 0 weights in
  let category i =
    let x = (float i +. 0.5) *. float total /. float count in
    let rec go acc = function
      | [ (c, _) ] -> c
      | (c, w) :: rest -> if x < float (acc + w) then c else go (acc + w) rest
      | [] -> assert false
    in
    go 0 weights
  in
  let next = Hashtbl.create 4 in
  let family c =
    let fams = List.filter_map (fun (f, c') -> if c = c' then Some f else None) Workloads.Benign.families in
    let k = Option.value (Hashtbl.find_opt next c) ~default:0 in
    Hashtbl.replace next c (k + 1);
    List.nth fams (k mod List.length fams)
  in
  List.init count (fun i ->
      let r = Sutil.Rng.split rng in
      let g = Workloads.Benign.build (family (category i)) r in
      let name = Printf.sprintf "%s-%03d" g.Workloads.Benign.name i in
      let program =
        if Sutil.Rng.chance r 0.5 then
          Workloads.Mutate.mutate ~intensity:Workloads.Mutate.light ~rng:r ~name g.Workloads.Benign.program
        else g.Workloads.Benign.program
      in
      {
        D.name;
        label = L.Benign;
        program;
        init = g.Workloads.Benign.init;
        victim = None;
        settings = None;
      })

(* Target names are made unique here: dataset names can repeat across
   draws, and the serve workload resolves targets by name. *)
let targets_of rng ~prefix labelled =
  let a = Array.of_list labelled in
  Sutil.Rng.shuffle_arr rng a;
  Array.mapi
    (fun i ((s : D.sample), attack) ->
      { job = job_of ~name:(Printf.sprintf "%s%03d-%s" prefix i s.D.name) s; attack })
    a

let build_models jobs =
  match Scaguard.Service.build config jobs with
  | Ok (models, _) -> models
  | Error e -> failwith ("model build failed: " ^ Scaguard.Err.to_string e)

(* ---- cold-screen ---------------------------------------------------------- *)

type cold = { cold_pocs : (string * Scaguard.Pipeline.job) list; cold_targets : target array }

(* 256 programs never seen before: 128 mutated attacks (32 per family) and
   128 benign kernels, shuffled so neither class runs as one block. *)
let cold rng =
  let cold_pocs = poc_jobs rng in
  let attacks = List.map (fun (_, s) -> (s, true)) (mutants rng ~per_family:32) in
  let benign = List.map (fun s -> (s, false)) (benign rng ~count:128) in
  { cold_pocs; cold_targets = targets_of rng ~prefix:"c" (attacks @ benign) }

(* ---- serve-mixed ---------------------------------------------------------- *)

type request =
  | Detect of string
  | Screen of string list
  | Explain of string list
  | Stats
  | Ping
  | Reload

type serve = {
  repo_jobs : (string * Scaguard.Pipeline.job) array;
      (** 4 PoCs and 16 mutants per family, built during set-up *)
  pool : (string, target) Hashtbl.t;  (** the daemon's target registry *)
  script : request array;  (** one pass of the closed-loop client *)
}

(* The client's request script.  Its 192 detects ask for 96 distinct
   targets twice each, in a seeded order, so half the draws repeat an
   earlier target: the repeated work a request or DTW memo could exploit.
   The targets are 72 attack and 24 benign programs, three to one.  (The
   two classes cost differently: in one run attack detects took 12 ms at
   the median and benign ones 4 ms.  With half of each the median detect
   fell between the two groups, and with repeats drawn at random the
   repeats decided where; either way it jumped with the seed.)  A few
   percent each of screen, explain, stats/ping and reload are spliced in
   at random positions. *)
let script rng ~attack_names ~benign_names =
  let distinct = Array.append attack_names benign_names in
  let order = Array.append distinct distinct in
  Sutil.Rng.shuffle_arr rng order;
  let pick k = List.init k (fun _ -> Sutil.Rng.choose_arr rng distinct) in
  let extras =
    List.init 6 (fun _ -> Screen (pick 4))
    @ List.init 6 (fun _ -> Explain (pick 2))
    @ [ Stats; Stats; Stats; Ping; Ping; Ping; Reload; Reload; Reload; Reload ]
  in
  let n = Array.length order + List.length extras in
  let slots = Array.init n (fun i -> i < List.length extras) in
  Sutil.Rng.shuffle_arr rng slots;
  let extras = ref extras and d = ref 0 in
  Array.map
    (fun is_extra ->
      if is_extra then begin
        let r = List.hd !extras in
        extras := List.tl !extras;
        r
      end
      else begin
        let name = order.(!d) in
        incr d;
        Detect name
      end)
    slots

let serve rng =
  let pocs = poc_jobs rng in
  let muts =
    List.mapi
      (fun i (f, (s : D.sample)) -> (f, job_of ~name:(Printf.sprintf "r%03d-%s" i s.D.name) s))
      (mutants rng ~per_family:16)
  in
  let attacks = List.map (fun (_, s) -> (s, true)) (mutants rng ~per_family:18) in
  let benign = List.map (fun s -> (s, false)) (benign rng ~count:24) in
  let targets = targets_of rng ~prefix:"s" (attacks @ benign) in
  let pool = Hashtbl.create 128 in
  Array.iter (fun t -> Hashtbl.replace pool t.job.Scaguard.Pipeline.job_name t) targets;
  let names attack =
    Array.of_list
      (List.filter_map
         (fun t -> if t.attack = attack then Some t.job.Scaguard.Pipeline.job_name else None)
         (Array.to_list targets))
  in
  {
    repo_jobs = Array.of_list (pocs @ muts);
    pool;
    script = script rng ~attack_names:(names true) ~benign_names:(names false);
  }
