(* The memo race under concurrent domains is benign: both losers compute
   the same digest of the same file and the cell only ever moves from
   [None] to that one value. *)
let executable_salt =
  let memo = ref None in
  fun () ->
    match !memo with
    | Some s -> s
    | None ->
      let s =
        try Digest.to_hex (Digest.file Sys.executable_name)
        with Sys_error _ -> "record-no-executable-digest"
      in
      memo := Some s;
      s

let render_fingerprint (m : Target.Machine.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf m.name;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (string_of_int m.word_bits);
  Buffer.add_char buf '\n';
  List.iter
    (fun b ->
      Buffer.add_string buf b;
      Buffer.add_char buf ',')
    m.banks;
  Buffer.add_char buf '\n';
  List.iter
    (fun (mode, reset) ->
      Buffer.add_string buf mode;
      Buffer.add_char buf '=';
      Buffer.add_string buf (string_of_int reset);
      Buffer.add_char buf ',')
    m.modes;
  Buffer.add_char buf '\n';
  (* The grammar and register-file printers render every rule, cost, and
     register class; their output is a function of the structure alone, so
     it doubles as a structural encoding. *)
  Buffer.add_string buf (Format.asprintf "%a" Burg.Grammar.pp m.grammar);
  Buffer.add_string buf (Format.asprintf "%a" Target.Regfile.pp m.regfile);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Rendering the grammar and register file costs tens of microseconds,
   and a sweep keys every job of a machine against the same value, so the
   digest is memoized per machine name.  Like [Registry.matcher_for], an
   entry is trusted only while the grammar is physically the one it was
   rendered from; the register file must be the same value too, and the
   remaining fingerprinted fields are compared outright.  The table is
   shared by every pool domain, hence the mutex; a render racing another
   one for the same machine computes the same digest. *)
let fingerprints : (string, Target.Machine.t * string) Hashtbl.t =
  Hashtbl.create 16

let fingerprints_lock = Mutex.create ()

let same_fingerprint_inputs (a : Target.Machine.t) (b : Target.Machine.t) =
  a.grammar == b.grammar && a.regfile == b.regfile
  && a.word_bits = b.word_bits && a.banks = b.banks && a.modes = b.modes

let machine_fingerprint (m : Target.Machine.t) =
  let cached =
    Mutex.protect fingerprints_lock (fun () ->
        match Hashtbl.find_opt fingerprints m.name with
        | Some (m', fp) when same_fingerprint_inputs m' m -> Some fp
        | Some _ | None -> None)
  in
  match cached with
  | Some fp -> fp
  | None ->
    let fp = render_fingerprint m in
    Mutex.protect fingerprints_lock (fun () ->
        Hashtbl.replace fingerprints m.name (m, fp));
    fp

let make ?salt ~machine ~options prog =
  let salt = match salt with Some s -> s | None -> executable_salt () in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "record-cache-v1\n";
  Buffer.add_string buf salt;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (machine_fingerprint machine);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Record.Options.to_string options);
  Buffer.add_char buf '\n';
  Ir.Prog.fold_digest buf prog;
  Digest.to_hex (Digest.string (Buffer.contents buf))
