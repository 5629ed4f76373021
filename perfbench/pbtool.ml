(* pbtool: the OCaml half of the benchmark.

     pbtool gen --seed S --count N --dir DIR
       Writes DIR/manifest.json, DIR/<kernel>.dfl and DIR/f<i>.dfl: the ten
       Table-1 kernels and N seeded straight-line Fuzz.Gen programs rendered through
       Dfl.Unparse, each with the reference outputs Ir.Eval computes.  The
       driver checks every output of the compiler under test against them.

     pbtool oneshot --record EXE --file F --target T --cache-dir D
                    --input x=1,2 ... --req N --trace 0|1 --out OUT.json
       One `record compile --json --check` invocation, replayed layer by
       layer in a fresh process.

     pbtool dse --record EXE --seed S --samples N --cache-dir D
                --trace 0|1 --out OUT.json
       One `record dse` pass, replayed layer by layer.

     pbtool batch --record EXE --jobs JOBS.json --cache-dir D
                  --replies OUT.json --trace 0|1 --out OUT.json
       One `record batch JOBS.json --json` run, replayed layer by layer in
       one process.

     pbtool dse-check --record EXE --seed S --samples N --selection M
                      --matcher E --cache-dir D --doc DSE.json --out OUT.json
       The oracle of one `record dse` sweep: every compile the sweep wrote
       to D, simulated and compared with Dspstone.Kernels.reference_outputs.

   EXE is the shipped `record` binary: the replays digest it for the cache
   key salt, as `record` digests itself, so their keys are record's keys.

   The replays copy the order of calls of Driver.Service.compile and
   Driver.Job.run; they must change whenever those do.  run.py compares
   the cache counters of the dse replay with those `record dse` prints.

   With --trace 1 every call into a layer's public function is recorded as
   a span (name, start, end, parent, request id) in memory and written to
   OUT.json at exit, together with the layers' own counters.  With
   --trace 0 the same calls run unrecorded; run.py compares the two
   wall times to report the tracing overhead. *)

module Json = Driver.Json

(* ---- arguments ------------------------------------------------------------ *)

let args =
  let rec pairs acc = function
    | key :: value :: rest
      when String.length key > 2 && String.sub key 0 2 = "--" ->
      pairs ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> List.rev acc
    | bad :: _ -> failwith ("pbtool: unexpected argument " ^ bad)
  in
  match Array.to_list Sys.argv with
  | _ :: _ :: rest -> pairs [] rest
  | _ -> []

let arg name =
  match List.assoc_opt name args with
  | Some v -> v
  | None -> failwith ("pbtool: missing --" ^ name)

let arg_all name = List.filter_map (fun (k, v) -> if k = name then Some v else None) args
let arg_int name = int_of_string (arg name)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

(* ---- spans and counters --------------------------------------------------- *)

module Span = struct
  type t = {
    id : int;
    parent : int;
    name : string;
    t0 : int;
    t1 : int;
    req : int;
    dom : int;
  }

  let enabled = ref false
  let now () = Int64.to_int (Monotonic_clock.now ())
  let next = Atomic.make 1
  let lock = Mutex.create ()
  let recorded = ref []

  let add ~id ~parent ~req name t0 t1 =
    let s = { id; parent; name; t0; t1; req; dom = (Domain.self () :> int) } in
    Mutex.lock lock;
    recorded := s :: !recorded;
    Mutex.unlock lock

  let fresh () = if !enabled then Atomic.fetch_and_add next 1 else 0

  (* [f] receives the new span's id, to pass on as the parent of its
     children.  A call that raises is recorded all the same. *)
  let run ?(parent = 0) ?(req = -1) name f =
    if not !enabled then f 0
    else begin
      let id = fresh () in
      let t0 = now () in
      Fun.protect ~finally:(fun () -> add ~id ~parent ~req name t0 (now ()))
        (fun () -> f id)
    end

  (* The name is chosen after the call, so one call site can record e.g.
     which cache tier answered. *)
  let run_named ?(parent = 0) ?(req = -1) f =
    if not !enabled then snd (f 0)
    else begin
      let id = fresh () in
      let t0 = now () in
      let name, r = f id in
      add ~id ~parent ~req name t0 (now ());
      r
    end

  let to_json () =
    Json.List
      (List.rev_map
         (fun s ->
           Json.Obj
             [
               ("id", Json.Int s.id);
               ("parent", Json.Int s.parent);
               ("name", Json.String s.name);
               ("t0", Json.Int s.t0);
               ("t1", Json.Int s.t1);
               ("req", Json.Int s.req);
               ("dom", Json.Int s.dom);
             ])
         !recorded)
end

(* Layer counters, summed under one lock (a few updates per job). *)
module Count = struct
  let lock = Mutex.create ()
  let table : (string, float) Hashtbl.t = Hashtbl.create 64

  let add name v =
    Mutex.lock lock;
    Hashtbl.replace table name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt table name));
    Mutex.unlock lock

  let to_json () =
    Json.Obj
      (Hashtbl.fold (fun k v acc -> (k, Json.Float v) :: acc) table []
      |> List.sort compare)
end

(* Counters the layers keep themselves, as deltas over the measured part of
   a run. *)
let layer_snapshot cache =
  let hc = Ir.Hashcons.stats () in
  let c = Driver.Cache.counters cache in
  [
    ("hashcons.hits", hc.Ir.Hashcons.hits);
    ("hashcons.misses", hc.Ir.Hashcons.misses);
    ("cache.memory_hits", c.Driver.Cache.memory_hits);
    ("cache.disk_hits", c.Driver.Cache.disk_hits);
    ("cache.misses", c.Driver.Cache.misses);
    ("cache.stores", c.Driver.Cache.stores);
    ("cache.evictions", c.Driver.Cache.evictions);
  ]

let count_delta before after =
  List.iter2
    (fun (name, a) (_, b) -> Count.add name (float_of_int (b - a)))
    before after

let write_result ~wall_ns extra =
  write_file (arg "out")
    (Json.to_string
       (Json.Obj
          ([
             ("wall_ns", Json.Int wall_ns);
             ("spans", Span.to_json ());
             ("counters", Count.to_json ());
           ]
          @ extra)))

(* ---- one job, layer by layer ---------------------------------------------- *)

(* Driver.Key.executable_salt digests the running executable, which here is
   pbtool; the replays digest record's own binary instead and hand the
   digest to Key.make, so the time and the keys are those of `record`. *)
let salt = ref ""

let take_salt ?parent ?req () =
  salt :=
    Span.run ?parent ?req "key.salt" (fun _ ->
        Digest.to_hex (Digest.file (arg "record")))

(* A compiled program rebuilt from a cache entry, as Driver.Service.compile
   does on a hit. *)
let of_entry machine prog options (e : Driver.Cache.entry) =
  {
    Record.Pipeline.machine;
    prog;
    options;
    asm = e.Driver.Cache.asm;
    layout = e.Driver.Cache.layout;
    pool = e.Driver.Cache.pool;
    stats = e.Driver.Cache.stats;
    selection = e.Driver.Cache.selection;
    phase_ms = e.Driver.Cache.phase_ms;
  }

(* Matchers seen so far, by physical identity: a new one is an automaton
   build, whose cost the matcher reports itself. *)
let matchers_seen = ref []
let matchers_lock = Mutex.create ()

let note_matcher m =
  Mutex.lock matchers_lock;
  let fresh = not (List.exists (fun x -> x == m) !matchers_seen) in
  if fresh then matchers_seen := m :: !matchers_seen;
  Mutex.unlock matchers_lock;
  if fresh then begin
    Count.add "burs.builds" 1.0;
    Count.add "burs.build_ms" (Burg.Matcher.table_build_ms m);
    Count.add "burs.states" (float_of_int (Burg.Matcher.state_count m));
    Count.add "burs.transitions" (float_of_int (Burg.Matcher.transition_count m))
  end

(* Keys whose compile raised Unsupported: the cache never stores them, so a
   later request for the same key runs the pipeline again. *)
let unsupported_keys : (string, unit) Hashtbl.t = Hashtbl.create 16
let unsupported_lock = Mutex.create ()

let with_unsupported f =
  Mutex.lock unsupported_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock unsupported_lock) f

let count_selection (s : Record.Pipeline.selection_stats) phase_ms =
  let c name v = Count.add name (float_of_int v) in
  c "sel.variant_nodes" s.Record.Pipeline.sel_variant_nodes;
  c "sel.nodes_labelled" s.Record.Pipeline.sel_nodes_labelled;
  c "sel.state_prunes" s.Record.Pipeline.sel_state_prunes;
  c "sel.dag_cuts" s.Record.Pipeline.sel_dag_cuts;
  c "sel.exh_wins" s.Record.Pipeline.sel_exh_wins;
  List.iter (fun (phase, ms) -> Count.add ("phase." ^ phase ^ "_ms") ms) phase_ms

let install_exhaustive_backend cache =
  Select.Exhaustive.set_backend
    (Some
       {
         Select.Exhaustive.load = (fun key -> Driver.Cache.find_blob cache key);
         store = (fun key payload -> Driver.Cache.store_blob cache key payload);
       })

(* Driver.Service.compile, one layer call at a time. *)
let compile_through_cache ~parent ~req ~cache ~options machine prog =
  let key =
    Span.run ~parent ~req "key.make" (fun _ ->
        Driver.Key.make ~salt:!salt ~machine ~options prog)
  in
  let matcher =
    Span.run ~parent ~req "registry.matcher_for" (fun _ ->
        Driver.Registry.matcher_for ~engine:options.Record.Options.matcher
          machine)
  in
  note_matcher matcher;
  let found =
    Span.run_named ~parent ~req (fun _ ->
        match Driver.Cache.find cache key with
        | Some (_, Driver.Cache.Memory) as r -> ("cache.find_mem", r)
        | Some (_, Driver.Cache.Disk) as r -> ("cache.find_disk", r)
        | None -> ("cache.find_miss", None))
  in
  match found with
  | Some (e, tier) ->
    ( of_entry machine prog options e,
      (match tier with
      | Driver.Cache.Memory -> Driver.Service.Memory_hit
      | Driver.Cache.Disk -> Driver.Service.Disk_hit),
      key )
  | None ->
    Count.add "pipeline.compiles" 1.0;
    if with_unsupported (fun () -> Hashtbl.mem unsupported_keys key) then
      Count.add "pipeline.uncached_recompiles" 1.0;
    let compiled =
      match
        Span.run ~parent ~req "pipeline.compile" (fun _ ->
            Record.Pipeline.compile ~options ~matcher machine prog)
      with
      | c -> c
      | exception (Record.Pipeline.Error _ as e) ->
        with_unsupported (fun () -> Hashtbl.replace unsupported_keys key ());
        raise e
    in
    count_selection compiled.Record.Pipeline.selection
      compiled.Record.Pipeline.phase_ms;
    Span.run ~parent ~req "cache.store" (fun _ ->
        Driver.Cache.store cache key
          {
            Driver.Cache.asm = compiled.Record.Pipeline.asm;
            layout = compiled.Record.Pipeline.layout;
            pool = compiled.Record.Pipeline.pool;
            stats = compiled.Record.Pipeline.stats;
            selection = compiled.Record.Pipeline.selection;
            phase_ms = compiled.Record.Pipeline.phase_ms;
          });
    (compiled, Driver.Service.Miss, key)

(* Record.Pipeline.execute, split into the simulator's prepare and run. *)
let simulate ~parent ~req (c : Record.Pipeline.compiled) inputs =
  let machine = c.Record.Pipeline.machine in
  let image = inputs @ List.map (fun (n, v) -> (n, [| v |])) c.Record.Pipeline.pool in
  let plan =
    Span.run ~parent ~req "sim.prepare" (fun _ ->
        Sim.Compile.prepare ~width:machine.Target.Machine.word_bits machine
          ~layout:c.Record.Pipeline.layout c.Record.Pipeline.asm)
  in
  let outcome =
    Span.run ~parent ~req "sim.run" (fun _ -> Sim.Compile.run plan ~inputs:image)
  in
  Count.add "sim.cycles" (float_of_int outcome.Sim.Compile.cycles);
  (Sim.outputs outcome c.Record.Pipeline.prog, outcome.Sim.Compile.cycles)

(* Driver.Job.run for compile and simulate jobs. *)
let run_job ~parent ~req ~cache (job : Driver.Job.t) =
  let t0 = Unix.gettimeofday () in
  let status =
    match
      Span.run ~parent ~req "registry.find_machine" (fun _ ->
          Driver.Registry.find_machine job.Driver.Job.target)
    with
    | Error msg -> Driver.Job.Failed msg
    | Ok machine -> (
      match
        compile_through_cache ~parent ~req ~cache ~options:job.Driver.Job.options
          machine job.Driver.Job.prog
      with
      | exception Record.Pipeline.Error msg -> Driver.Job.Unsupported msg
      | c, provenance, key -> (
        let asm =
          Span.run ~parent ~req "asm.render" (fun _ ->
              Format.asprintf "%a" Target.Asm.pp c.Record.Pipeline.asm)
        in
        let base =
          {
            Driver.Job.words = Record.Pipeline.words c;
            instrs = Target.Asm.instr_count c.Record.Pipeline.asm;
            stats = c.Record.Pipeline.stats;
            selection = c.Record.Pipeline.selection;
            cycles = None;
            outputs = [];
            static_cycles = None;
            deadline_met = None;
            asm;
            key;
            cache = provenance;
            wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
            phase_ms = c.Record.Pipeline.phase_ms;
          }
        in
        match job.Driver.Job.kind with
        | Driver.Job.Compile | Driver.Job.Timing _ -> Driver.Job.Done base
        | Driver.Job.Simulate -> (
          match simulate ~parent ~req c job.Driver.Job.inputs with
          | outputs, cycles ->
            Driver.Job.Done { base with cycles = Some cycles; outputs }
          | exception
              ( Sim.Compile.Mode_violation msg
              | Sim.Compile.Exec_error msg
              | Invalid_argument msg ) ->
            Driver.Job.Failed msg)))
  in
  { Driver.Job.job = job.Driver.Job.id; label = job.Driver.Job.label; status }

(* ---- gen ------------------------------------------------------------------ *)

let io_json pairs =
  Json.Obj
    (List.map
       (fun (name, values) ->
         (name, Json.List (List.map (fun v -> Json.Int v) (Array.to_list values))))
       pairs)

(* Straight-line programs (no loops): with loops, a share of the generated
   programs exceed some target's address registers, and a generator that
   filtered them by compiling would hide a coverage regression.  Depth 2
   keeps exhaustive selection within about a millisecond per program; at
   depth 3 a few programs in a thousand take 30-70 ms, and which ones a
   seed draws would decide the tail. *)
let fuzz_config = { (Fuzz.Gen.sized 4) with Fuzz.Gen.max_nest = 0; max_depth = 2 }

let program_set ~seed ~count =
  let seen = Hashtbl.create count in
  let rec go index acc n =
    if n = count then List.rev acc
    else
      let case = Fuzz.Gen.case ~config:fuzz_config ~seed ~index () in
      let prog = case.Fuzz.Gen.prog and inputs = case.Fuzz.Gen.inputs in
      match Dfl.Unparse.program prog with
      | text when Fuzz.Oracle.within_contract prog inputs && not (Hashtbl.mem seen text) ->
        Hashtbl.add seen text ();
        go (index + 1) ((text, inputs, Ir.Eval.run_with_inputs prog inputs) :: acc) (n + 1)
      | _ | (exception Dfl.Unparse.Not_printable _) -> go (index + 1) acc n
  in
  go 0 [] 0

let gen () =
  let dir = arg "dir" in
  let programs = program_set ~seed:(arg_int "seed") ~count:(arg_int "count") in
  let fuzz =
    List.mapi
      (fun i (text, inputs, expected) ->
        let file = Filename.concat dir (Printf.sprintf "f%d.dfl" i) in
        write_file file text;
        Json.Obj
          [
            ("name", Json.String (Printf.sprintf "f%d" i));
            ("file", Json.String file);
            ("inputs", io_json inputs);
            ("expected", io_json expected);
          ])
      programs
  in
  let kernels =
    List.map
      (fun (k : Dspstone.Kernels.t) ->
        let file = Filename.concat dir (k.Dspstone.Kernels.name ^ ".dfl") in
        write_file file k.Dspstone.Kernels.source;
        Json.Obj
          [
            ("name", Json.String k.Dspstone.Kernels.name);
            ("file", Json.String file);
            ("inputs", io_json k.Dspstone.Kernels.inputs);
            ("expected", io_json (Dspstone.Kernels.reference_outputs k));
          ])
      Dspstone.Kernels.all
  in
  write_file
    (Filename.concat dir "manifest.json")
    (Json.to_string (Json.Obj [ ("kernels", Json.List kernels); ("fuzz", Json.List fuzz) ]))

(* ---- oneshot -------------------------------------------------------------- *)

let parse_input spec =
  match String.index_opt spec '=' with
  | None -> failwith ("pbtool: bad --input " ^ spec)
  | Some i ->
    ( String.sub spec 0 i,
      String.sub spec (i + 1) (String.length spec - i - 1)
      |> String.split_on_char ',' |> List.map int_of_string |> Array.of_list )

let oneshot () =
  Span.enabled := arg "trace" = "1";
  let req = arg_int "req" in
  let file = arg "file" in
  let t0 = Span.now () in
  let result =
    Span.run ~req "oneshot" (fun parent ->
        take_salt ~parent ~req ();
        let machine =
          Span.run ~parent ~req "registry.find_machine" (fun _ ->
              Result.get_ok (Driver.Registry.find_machine (arg "target")))
        in
        let source = Span.run ~parent ~req "io.read" (fun _ -> read_file file) in
        let ast = Span.run ~parent ~req "dfl.parse" (fun _ -> Dfl.Parser.parse source) in
        let prog = Span.run ~parent ~req "dfl.lower" (fun _ -> Dfl.Lower.program ast) in
        let cache =
          Span.run ~parent ~req "cache.create" (fun _ ->
              Driver.Cache.create ~dir:(arg "cache-dir") ())
        in
        install_exhaustive_backend cache;
        let before = layer_snapshot cache in
        let options = Record.Options.record_ in
        let outcome =
          match compile_through_cache ~parent ~req ~cache ~options machine prog with
          | c, provenance, key -> Ok (c, provenance, key)
          | exception Record.Pipeline.Error msg -> Error msg
        in
        let doc =
          match outcome with
          | Error msg -> Json.Obj [ ("status", Json.String "unsupported"); ("error", Json.String msg) ]
          | Ok (c, provenance, key) ->
            let inputs = List.map parse_input (arg_all "input") in
            let outputs, cycles = simulate ~parent ~req c inputs in
            let checked =
              Span.run ~parent ~req "eval.check" (fun _ ->
                  List.for_all
                    (fun (n, v) -> List.assoc n outputs = v)
                    (Ir.Eval.run_with_inputs prog inputs))
            in
            let doc =
              Span.run ~parent ~req "json.encode" (fun _ ->
                  let asm = Format.asprintf "%a" Target.Asm.pp c.Record.Pipeline.asm in
                  let doc =
                    Json.Obj
                      [
                        ("protocol", Json.String "record-compile-1");
                        ("file", Json.String file);
                        ("target", Json.String machine.Target.Machine.name);
                        ("key", Json.String key);
                        ("cache", Json.String (Driver.Service.provenance_name provenance));
                        ("words", Json.Int (Record.Pipeline.words c));
                        ("asm", Json.String asm);
                        ("selection", Driver.Job.selection_to_json c.Record.Pipeline.selection);
                        ("cycles", Json.Int cycles);
                        ("outputs", io_json outputs);
                        ("check", Json.Bool checked);
                      ]
                  in
                  ignore (Json.to_string ~indent:true doc);
                  doc)
            in
            doc
        in
        count_delta before (layer_snapshot cache);
        doc)
  in
  write_result ~wall_ns:(Span.now () - t0) [ ("result", result) ]

(* ---- dse ------------------------------------------------------------------ *)

(* Time the pool's domains spend running jobs, for pool.busy_share. *)
let busy_ns = Atomic.make 0

let dse () =
  Span.enabled := arg "trace" = "1";
  let seed = arg_int "seed" and samples = arg_int "samples" in
  let t0 = Span.now () in
  let summary =
    Span.run "dse.pass" (fun parent ->
        take_salt ~parent ();
        let cache =
          Span.run ~parent "cache.create" (fun _ ->
              Driver.Cache.create ~dir:(arg "cache-dir") ())
        in
        install_exhaustive_backend cache;
        let before = layer_snapshot cache in
        let kernels =
          Span.run ~parent "dspstone.prog" (fun _ ->
              List.map (fun (k : Dspstone.Kernels.t) -> (k, Dspstone.Kernels.prog k))
                Dspstone.Kernels.all)
        in
        let points = Span.run ~parent "dse.sample" (fun _ -> Dse.Sample.points ~seed ~count:samples) in
        let seen = Hashtbl.create 64 in
        List.iter
          (fun (p : Dse.Sample.point) ->
            if not (Hashtbl.mem seen p.Dse.Sample.name) then begin
              Hashtbl.add seen p.Dse.Sample.name ();
              Span.run ~parent "dse.machine_build" (fun _ ->
                  Driver.Registry.register
                    (Target.Asip.machine ~name:p.Dse.Sample.name p.Dse.Sample.params))
            end)
          points;
        let pool = Span.run ~parent "pool.create" (fun _ -> Driver.Pool.create ()) in
        let nk = List.length kernels in
        let jobs =
          List.concat_map
            (fun (p : Dse.Sample.point) ->
              List.mapi
                (fun ki ((k : Dspstone.Kernels.t), prog) ->
                  Driver.Job.make ~id:((p.Dse.Sample.index * nk) + ki)
                    ~target:p.Dse.Sample.name ~options_label:"record"
                    ~inputs:k.Dspstone.Kernels.inputs ~kind:Driver.Job.Simulate prog)
                kernels)
            points
        in
        (* All jobs are queued at once, as Driver.Pool.run_jobs does. *)
        let results = Array.make (List.length jobs) None in
        let remaining = ref (List.length jobs) in
        let m = Mutex.create () and all_done = Condition.create () in
        List.iteri
          (fun i (job : Driver.Job.t) ->
            let submitted = Span.now () in
            let req = job.Driver.Job.id in
            Driver.Pool.submit pool (fun () ->
                let started = Span.now () in
                if !Span.enabled then
                  Span.add ~id:(Span.fresh ()) ~parent ~req "pool.queue_wait" submitted started;
                let r = run_job ~parent ~req ~cache job in
                ignore (Atomic.fetch_and_add busy_ns (Span.now () - started));
                Mutex.lock m;
                results.(i) <- Some r;
                decr remaining;
                if !remaining = 0 then Condition.signal all_done;
                Mutex.unlock m))
          jobs;
        Mutex.lock m;
        while !remaining > 0 do
          Condition.wait all_done m
        done;
        Mutex.unlock m;
        let results = Array.to_list (Array.map Option.get results) in
        let scores =
          Span.run ~parent "dse.score" (fun _ ->
              List.mapi
                (fun pi p ->
                  let mine = List.filteri (fun j _ -> j / nk = pi) results in
                  Dse.Score.of_results p
                    (List.map2
                       (fun ((k : Dspstone.Kernels.t), _) (r : Driver.Job.result) ->
                         (k.Dspstone.Kernels.name, r.Driver.Job.status))
                       kernels mine))
                points)
        in
        let complete = List.filter (fun (s : Dse.Score.t) -> s.Dse.Score.complete) scores in
        let front =
          Span.run ~parent "dse.pareto" (fun _ -> Dse.Pareto.front Dse.Score.objectives complete)
        in
        ignore
          (Span.run ~parent "json.encode" (fun _ ->
               Json.to_string ~indent:true (Json.List (List.map Dse.Score.to_json scores))));
        Span.run ~parent "pool.shutdown" (fun _ -> Driver.Pool.shutdown pool);
        count_delta before (layer_snapshot cache);
        let unsupported =
          List.length
            (List.filter
               (fun (r : Driver.Job.result) ->
                 match r.Driver.Job.status with Driver.Job.Unsupported _ -> true | _ -> false)
               results)
        in
        Count.add "pool.busy_ns" (float_of_int (Atomic.get busy_ns));
        Count.add "pool.domains" (float_of_int (Driver.Pool.default_domains ()));
        [
          ("jobs", Json.Int (List.length jobs));
          ("unsupported", Json.Int unsupported);
          ("unique_architectures", Json.Int (Hashtbl.length seen));
          ("complete_architectures", Json.Int (List.length complete));
          ( "pareto",
            Json.List
              (List.map (fun (s : Dse.Score.t) -> Json.Int s.Dse.Score.point.Dse.Sample.index) front) );
        ])
  in
  write_result ~wall_ns:(Span.now () - t0) summary

(* ---- batch ---------------------------------------------------------------- *)

let batch () =
  Span.enabled := arg "trace" = "1";
  let t0 = Span.now () in
  Span.run "batch" (fun parent ->
      take_salt ~parent ();
      let text = Span.run ~parent "io.read" (fun _ -> read_file (arg "jobs")) in
      let doc = Span.run ~parent "json.parse" (fun _ -> Result.get_ok (Json.of_string text)) in
      let jobs =
        Span.run ~parent "protocol.decode" (fun _ ->
            Result.get_ok (Driver.Protocol.jobs_of_json doc))
      in
      let cache =
        Span.run ~parent "cache.create" (fun _ -> Driver.Cache.create ~dir:(arg "cache-dir") ())
      in
      install_exhaustive_backend cache;
      let before = layer_snapshot cache in
      let results =
        List.map (fun (job : Driver.Job.t) -> run_job ~parent ~req:job.Driver.Job.id ~cache job) jobs
      in
      let reply =
        Span.run ~parent "json.encode" (fun _ ->
            Json.to_string ~indent:true (Driver.Job.results_to_json ~jobs results))
      in
      count_delta before (layer_snapshot cache);
      write_file (arg "replies") reply);
  write_result ~wall_ns:(Span.now () - t0) []

(* ---- dse-check ------------------------------------------------------------ *)

let sorted_outputs l = List.sort (fun (a, _) (b, _) -> compare a b) l

(* (sample, kernel) pairs the sweep's record-dse-1 document reports ok. *)
let dse_ok_pairs doc =
  let get name conv j = Option.get (Option.bind (Json.member name j) conv) in
  let pairs = Hashtbl.create 1024 in
  List.iter
    (fun a ->
      List.iter
        (fun k ->
          if get "status" Json.to_string_lit k = "ok" then
            Hashtbl.replace pairs (get "sample" Json.to_int a, get "kernel" Json.to_string_lit k) ())
        (get "kernels" Json.to_list a))
    (get "architectures" Json.to_list doc);
  pairs

(* Every compile of one `record dse` sweep, read back from the cache
   directory the sweep wrote and simulated, its outputs compared with the
   kernel's reference outputs.  A key missing there is compiled here when
   the document reports the kernel ok; one the document reports failed is
   left missing (never cached: an Unsupported), and run.py checks its
   message instead.  One row per sample and kernel. *)
let dse_check () =
  take_salt ();
  let reported_ok = dse_ok_pairs (Result.get_ok (Json.of_string (read_file (arg "doc")))) in
  let cache = Driver.Cache.create ~dir:(arg "cache-dir") () in
  let options =
    Record.Options.with_matcher
      (Result.get_ok (Burg.Matcher.engine_of_string (arg "matcher")))
      (Record.Options.with_selection_mode
         (Option.get (Record.Options.selection_mode_of_string (arg "selection")))
         Record.Options.record_)
  in
  let kernels =
    List.map (fun k -> (k, Dspstone.Kernels.prog k, Dspstone.Kernels.reference_outputs k))
      Dspstone.Kernels.all
  in
  let machines = Hashtbl.create 64 in
  let compiles = ref 0 in
  let row (p : Dse.Sample.point) ((k : Dspstone.Kernels.t), prog, expected) =
    let machine =
      match Hashtbl.find_opt machines p.Dse.Sample.name with
      | Some m -> m
      | None ->
        let m = Target.Asip.machine ~name:p.Dse.Sample.name p.Dse.Sample.params in
        Hashtbl.add machines p.Dse.Sample.name m;
        m
    in
    let key = Driver.Key.make ~salt:!salt ~machine ~options prog in
    let compiled =
      match Driver.Cache.find cache key with
      | Some (e, _) -> Ok (of_entry machine prog options e)
      | None when not (Hashtbl.mem reported_ok (p.Dse.Sample.index, k.Dspstone.Kernels.name)) ->
        Error ("missing", "not in the cache")
      | None -> (
        incr compiles;
        match Driver.Service.compile ~cache ~salt:!salt ~options machine prog with
        | o -> Ok o.Driver.Service.compiled
        | exception Record.Pipeline.Error msg -> Error ("unsupported", msg))
    in
    let status, fields =
      match compiled with
      | Error (status, msg) -> (status, [ ("error", Json.String msg) ])
      | Ok c -> (
        match Record.Pipeline.execute c ~inputs:k.Dspstone.Kernels.inputs with
        | outputs, cycles ->
          ( "ok",
            [
              ("words", Json.Int (Record.Pipeline.words c));
              ("cycles", Json.Int cycles);
              ("outputs_ok", Json.Bool (sorted_outputs outputs = sorted_outputs expected));
            ] )
        | exception (Sim.Mode_violation msg | Sim.Exec_error msg | Invalid_argument msg) ->
          ("failed", [ ("error", Json.String msg) ]))
    in
    Json.Obj
      ([
         ("sample", Json.Int p.Dse.Sample.index);
         ("kernel", Json.String k.Dspstone.Kernels.name);
         ("status", Json.String status);
       ]
      @ fields)
  in
  let points = Dse.Sample.points ~seed:(arg_int "seed") ~count:(arg_int "samples") in
  let rows = List.concat_map (fun p -> List.map (row p) kernels) points in
  write_file (arg "out")
    (Json.to_string (Json.Obj [ ("rows", Json.List rows); ("compiles", Json.Int !compiles) ]))

let () =
  match Array.to_list Sys.argv with
  | _ :: "gen" :: _ -> gen ()
  | _ :: "oneshot" :: _ -> oneshot ()
  | _ :: "dse" :: _ -> dse ()
  | _ :: "batch" :: _ -> batch ()
  | _ :: "dse-check" :: _ -> dse_check ()
  | _ ->
    prerr_endline "usage: pbtool (gen|oneshot|dse|batch|dse-check) --key value ...";
    exit 2
