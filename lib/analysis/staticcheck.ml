module D = Diagnostic
module Json = Slocal_obs.Json

type classification =
  | Immutable_after_init
  | Per_call
  | Shared_cache_needs_lock
  | Nondeterministic

let classification_to_string = function
  | Immutable_after_init -> "immutable-after-init"
  | Per_call -> "per-call"
  | Shared_cache_needs_lock -> "shared-cache-needs-lock"
  | Nondeterministic -> "nondeterministic"

let classification_of_string = function
  | "immutable-after-init" | "domain-safe" -> Some Immutable_after_init
  | "per-call" -> Some Per_call
  | "shared-cache-needs-lock" -> Some Shared_cache_needs_lock
  | "nondeterministic" -> Some Nondeterministic
  | _ -> None

type kind =
  | Mutable_binding of string
  | Toplevel_lazy
  | Mutable_type of string list
  | Random_source of string
  | Wall_clock of string
  | Hash_order_iteration of string
  | Exit_or_signal_handler of string

let code_of_kind = function
  | Mutable_binding _ -> "SL050"
  | Toplevel_lazy | Mutable_type _ -> "SL051"
  | Random_source _ -> "SL052"
  | Wall_clock _ -> "SL053"
  | Hash_order_iteration _ -> "SL054"
  | Exit_or_signal_handler _ -> "SL055"

let kind_tag = function
  | Mutable_binding _ -> "mutable"
  | Toplevel_lazy -> "lazy"
  | Mutable_type _ -> "mutable-type"
  | Random_source _ -> "random"
  | Wall_clock _ -> "clock"
  | Hash_order_iteration _ -> "hash-order"
  | Exit_or_signal_handler _ -> "exit-handler"

let kind_detail = function
  | Mutable_binding c -> c
  | Toplevel_lazy -> "lazy"
  | Mutable_type fields -> String.concat "," fields
  | Random_source s | Wall_clock s | Hash_order_iteration s
  | Exit_or_signal_handler s ->
      s

let kind_describe = function
  | Mutable_binding c ->
      Printf.sprintf "module-scope mutable binding (%s)" c
  | Toplevel_lazy -> "lazy value at module scope"
  | Mutable_type fields ->
      Printf.sprintf "type with mutable state (field%s %s)"
        (if List.length fields = 1 then "" else "s")
        (String.concat ", " fields)
  | Random_source s -> Printf.sprintf "nondeterministic PRNG (%s)" s
  | Wall_clock s -> Printf.sprintf "wall-clock read (%s) outside lib/obs" s
  | Hash_order_iteration s ->
      Printf.sprintf "hash-order-dependent iteration (%s, no canonical sort)" s
  | Exit_or_signal_handler s -> Printf.sprintf "process-exit hook (%s)" s

type finding = {
  file : string;
  line : int;
  name : string;
  key : string;
  kind : kind;
  classification : classification option;
  reason : string option;
}

(* ------------------------------------------------------------------ *)
(* Lexical scrub: replace comment and string-literal contents by
   spaces (newlines kept, so line numbers survive), collecting the
   [staticcheck:] pragma comments on the way.  A plain state machine
   is exact enough for this repository's sources: nested comments and
   escaped quotes are handled; the one ambiguity — the character
   literal ['"'] — is disambiguated by its surrounding quotes. *)

type pragma = { p_line : int; p_word : string; p_rest : string }

let pragma_of_comment body =
  let t = String.trim body in
  let prefix = "staticcheck:" in
  if String.length t >= String.length prefix
     && String.sub t 0 (String.length prefix) = prefix
  then
    let rest =
      String.trim (String.sub t (String.length prefix)
                     (String.length t - String.length prefix))
    in
    match String.index_opt rest ' ' with
    | None -> Some (rest, "")
    | Some i ->
        Some
          ( String.sub rest 0 i,
            String.trim (String.sub rest (i + 1) (String.length rest - i - 1))
          )
  else None

let scrub_and_pragmas text =
  let n = String.length text in
  let out = Bytes.of_string text in
  let pragmas = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let blank j = if Bytes.get out j <> '\n' then Bytes.set out j ' ' in
  while !i < n do
    let c = text.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = '(' && !i + 1 < n && text.[!i + 1] = '*' then begin
      let start_line = !line in
      let depth = ref 1 in
      let j = ref (!i + 2) in
      let body = Buffer.create 64 in
      while !depth > 0 && !j < n do
        if !j + 1 < n && text.[!j] = '(' && text.[!j + 1] = '*' then begin
          incr depth;
          Buffer.add_string body "(*";
          j := !j + 2
        end
        else if !j + 1 < n && text.[!j] = '*' && text.[!j + 1] = ')' then begin
          decr depth;
          if !depth > 0 then Buffer.add_string body "*)";
          j := !j + 2
        end
        else begin
          if text.[!j] = '\n' then incr line;
          Buffer.add_char body text.[!j];
          incr j
        end
      done;
      for k = !i to min (!j - 1) (n - 1) do
        blank k
      done;
      (match pragma_of_comment (Buffer.contents body) with
      | Some (p_word, p_rest) ->
          pragmas := { p_line = start_line; p_word; p_rest } :: !pragmas
      | None -> ());
      i := !j
    end
    else if c = '"' then
      if !i > 0 && text.[!i - 1] = '\'' && !i + 1 < n && text.[!i + 1] = '\''
      then incr i (* the character literal '"' *)
      else begin
        blank !i;
        incr i;
        let fin = ref false in
        while (not !fin) && !i < n do
          match text.[!i] with
          | '\\' when !i + 1 < n ->
              blank !i;
              if text.[!i + 1] = '\n' then incr line else blank (!i + 1);
              i := !i + 2
          | '"' ->
              blank !i;
              incr i;
              fin := true
          | '\n' ->
              incr line;
              incr i
          | _ ->
              blank !i;
              incr i
        done
      end
    else incr i
  done;
  (Bytes.to_string out, List.rev !pragmas)

(* ------------------------------------------------------------------ *)
(* Top-level item segmentation: an item starts at a non-blank line
   whose first character is in column 0 (the repository is formatted
   by ocamlformat-style conventions, so this is exact). *)

type item = { it_line : int; it_text : string }

let items_of_scrubbed scrubbed =
  let lines = String.split_on_char '\n' scrubbed in
  let items = ref [] and cur = ref None in
  let flush () =
    match !cur with
    | Some (l, buf) -> items := { it_line = l; it_text = Buffer.contents buf } :: !items
    | None -> ()
  in
  List.iteri
    (fun idx raw ->
      let starts_item =
        String.length raw > 0 && raw.[0] <> ' ' && raw.[0] <> '\t'
      in
      if starts_item then begin
        flush ();
        cur := Some (idx + 1, Buffer.create 128)
      end;
      match !cur with
      | Some (_, buf) ->
          Buffer.add_string buf raw;
          Buffer.add_char buf '\n'
      | None -> ())
    lines;
  flush ();
  List.rev !items

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* Occurrences of [word] as a standalone token: the previous character
   is neither an identifier character nor '.', the next is not an
   identifier character.  Returns 0-based offsets. *)
let token_occurrences ?(allow_dotted = false) text word =
  let n = String.length text and k = String.length word in
  let acc = ref [] in
  let i = ref 0 in
  while !i + k <= n do
    if
      String.sub text !i k = word
      && (!i = 0
         || (not (is_ident_char text.[!i - 1]))
            && (allow_dotted || text.[!i - 1] <> '.'))
      && (!i + k = n || not (is_ident_char text.[!i + k]))
    then acc := !i :: !acc;
    incr i
  done;
  List.rev !acc

let contains_token ?allow_dotted text word =
  token_occurrences ?allow_dotted text word <> []

let line_of_offset text off =
  let line = ref 1 in
  for i = 0 to min (off - 1) (String.length text - 1) do
    if text.[i] = '\n' then incr line
  done;
  !line

(* ------------------------------------------------------------------ *)
(* Detectors. *)

let mutable_constructors =
  [
    "ref";
    "Hashtbl.create";
    "Array.make";
    "Array.create_float";
    "Queue.create";
    "Buffer.create";
    "Stack.create";
    "Bytes.create";
    "Bytes.make";
    "Atomic.make";
    "Mutex.create";
    "Domain.DLS.new_key";
  ]

let cache_container_types =
  [ "Hashtbl.t"; "Queue.t"; "Buffer.t"; "Stack.t" ]

let first_ident s =
  let n = String.length s in
  let i = ref 0 in
  while
    !i < n && not (is_ident_char s.[!i] && s.[!i] >= 'a' && s.[!i] <= 'z'
                   || s.[!i] = '_')
  do
    incr i
  done;
  if !i >= n then None
  else begin
    let j = ref !i in
    while !j < n && is_ident_char s.[!j] do
      incr j
    done;
    Some (String.sub s !i (!j - !i), !j)
  end

(* The head of a let item: everything before the first '='.  The item
   defines a function (per-call state; out of scope) when tokens other
   than a type annotation separate the bound name from '=', or when
   the body starts with [fun]/[function]. *)
let let_binding item =
  match String.index_opt item.it_text '=' with
  | None -> None
  | Some eq ->
      let head = String.sub item.it_text 0 eq in
      let body =
        String.sub item.it_text (eq + 1) (String.length item.it_text - eq - 1)
      in
      let head =
        (* strip the leading let / and / rec keywords *)
        let rec strip s =
          let t = String.trim s in
          let kw w =
            let k = String.length w in
            String.length t > k
            && String.sub t 0 k = w
            && not (is_ident_char t.[k])
          in
          if kw "let" then strip (String.sub t 3 (String.length t - 3))
          else if kw "and" then strip (String.sub t 3 (String.length t - 3))
          else if kw "rec" then strip (String.sub t 3 (String.length t - 3))
          else t
        in
        strip head
      in
      if head = "" then None
      else
        let name, rest =
          match first_ident head with
          | Some (nm, j) ->
              (nm, String.sub head j (String.length head - j))
          | None -> ("_", head)
        in
        let params =
          (* anything between the name and the ':' of a type
             annotation (or the '=') counts as a parameter *)
          let upto =
            match String.index_opt rest ':' with
            | Some c -> String.sub rest 0 c
            | None -> rest
          in
          String.exists (fun c -> is_ident_char c || c = '(') upto
        in
        let trimmed_body = String.trim body in
        let is_function =
          params
          || (String.length trimmed_body >= 3
             && (String.sub trimmed_body 0 3 = "fun"
                && (String.length trimmed_body = 3
                   || not (is_ident_char trimmed_body.[3]))
                || String.length trimmed_body >= 8
                   && String.sub trimmed_body 0 8 = "function"))
        in
        Some (name, body, is_function)

(* Mutable or cache-container fields of a type declaration's text.
   Arrays are deliberately out of scope: array-valued fields are
   visible, caller-owned buffers, while the targets here are the
   {e hidden} caches and accumulators ([Hashtbl.t], [Queue.t],
   [Buffer.t], [Stack.t], [ref]) and explicit [mutable] fields. *)
let mutable_fields_of_type text =
  let fields = ref [] in
  let add nm = if not (List.mem nm !fields) then fields := nm :: !fields in
  List.iter
    (fun line ->
      (* [mutable f] anywhere on the line (single-line records too) *)
      List.iter
        (fun off ->
          let rest =
            String.sub line (off + 7) (String.length line - off - 7)
          in
          match first_ident rest with Some (nm, _) -> add nm | None -> ())
        (token_occurrences line "mutable");
      let t = String.trim line in
      match String.index_opt t ':' with
      | Some c when c > 0 -> (
          let lhs = String.sub t 0 c
          and rhs = String.sub t (c + 1) (String.length t - c - 1) in
          let container =
            List.exists
              (fun ty -> contains_token ~allow_dotted:true rhs ty)
              cache_container_types
            || contains_token rhs "ref"
          in
          if container then
            match first_ident lhs with
            | Some (nm, j)
              when String.trim (String.sub lhs j (String.length lhs - j)) = ""
              ->
                add nm
            | _ -> ())
      | _ -> ())
    (String.split_on_char '\n' text);
  List.rev !fields

(* All type declarations in scrubbed source, at any nesting depth
   (types inside [module M = struct] blocks are indented, so the
   top-level item segmentation alone would miss them).  A declaration's
   block is its [type] line plus every following line that is blank or
   more deeply indented. *)
let type_blocks scrubbed =
  let indent_of line =
    let i = ref 0 in
    while !i < String.length line && line.[!i] = ' ' do
      incr i
    done;
    !i
  in
  let lines = Array.of_list (String.split_on_char '\n' scrubbed) in
  let blocks = ref [] in
  let n = Array.length lines in
  let i = ref 0 in
  while !i < n do
    let line = lines.(!i) in
    let t = String.trim line in
    (if
       String.length t > 5
       && String.sub t 0 5 = "type "
       && String.for_all (fun c -> c = ' ') (String.sub line 0 (indent_of line))
     then
       let indent = indent_of line in
       let buf = Buffer.create 128 in
       Buffer.add_string buf line;
       Buffer.add_char buf '\n';
       let start = !i in
       incr i;
       while
         !i < n
         && (String.trim lines.(!i) = "" || indent_of lines.(!i) > indent)
       do
         Buffer.add_string buf lines.(!i);
         Buffer.add_char buf '\n';
         incr i
       done;
       decr i;
       (* name: after [type] and optional [nonrec] / type parameters *)
       let after = String.sub t 5 (String.length t - 5) in
       let after =
         let tr = String.trim after in
         if String.length tr > 7 && String.sub tr 0 7 = "nonrec " then
           String.sub tr 7 (String.length tr - 7)
         else tr
       in
       let rec skip s =
         let s = String.trim s in
         if s = "" then None
         else if s.[0] = '\'' || s.[0] = '(' || s.[0] = '+' || s.[0] = '-' then
           match String.index_opt s ' ' with
           | None -> None
           | Some j -> skip (String.sub s j (String.length s - j))
         else match first_ident s with Some (nm, _) -> Some nm | None -> None
       in
       match skip after with
       | Some nm -> blocks := (nm, start + 1, Buffer.contents buf) :: !blocks
       | None -> ());
    incr i
  done;
  List.rev !blocks

(* Constructor tokens are only counted in the initialization prefix of
   a binding's body: everything before the first nested function
   definition ([fun], [function], or an inner [let f params = ...]).
   Mutable state created inside a nested closure is that closure's
   local state, not module state. *)
let init_prefix body =
  let buf = Buffer.create (String.length body) in
  (try
     List.iter
       (fun line ->
         let t = String.trim line in
         let nested_fun_let =
           String.length t > 4
           && String.sub t 0 4 = "let "
           &&
           match String.index_opt t '=' with
           | None -> false
           | Some eq -> (
               let head = String.sub t 4 (eq - 4) in
               let head =
                 match String.index_opt head ':' with
                 | Some c -> String.sub head 0 c
                 | None -> head
               in
               match first_ident head with
               | Some (_, j) ->
                   String.exists
                     (fun c -> is_ident_char c || c = '(')
                     (String.sub head j (String.length head - j))
               | None -> false)
         in
         if nested_fun_let then raise Exit;
         match
           token_occurrences line "fun" @ token_occurrences line "function"
         with
         | [] ->
             Buffer.add_string buf line;
             Buffer.add_char buf '\n'
         | offs ->
             Buffer.add_string buf
               (String.sub line 0 (List.fold_left min max_int offs));
             raise Exit)
       (String.split_on_char '\n' body)
   with Exit -> ());
  Buffer.contents buf

let sort_tokens = [ "List.sort"; "sort_uniq"; "Array.sort"; "List.stable_sort" ]

let wall_clock_tokens = [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ]

let in_obs file =
  (* lib/obs is the designated timekeeper: clock reads there are the
     implementation of the telemetry/ledger surface, not hidden
     nondeterminism on a kernel path. *)
  let needle = "lib/obs" in
  let n = String.length file and k = String.length needle in
  let rec scan i = i + k <= n && (String.sub file i k = needle || scan (i + 1)) in
  scan 0

let scan_source ~file text =
  let scrubbed, _ = scrub_and_pragmas text in
  let items = items_of_scrubbed scrubbed in
  let findings = ref [] in
  let add line name kind = findings := (line, name, kind) :: !findings in
  (* Pass 1: type declarations (any nesting depth) with mutable state;
     their field names also let us catch module-level record literals
     with mutable fields. *)
  let blocks = type_blocks scrubbed in
  List.iter
    (fun (nm, line, block_text) ->
      let fields = mutable_fields_of_type block_text in
      if fields <> [] then add line nm (Mutable_type fields))
    blocks;
  let mutable_field_names =
    List.concat_map (fun (_, _, bt) -> mutable_fields_of_type bt) blocks
  in
  List.iter
    (fun it ->
      (* module-scope mutable bindings and lazy values *)
      (match let_binding it with
      | Some (name, body, false) ->
          let init = init_prefix body in
          (match
             List.find_opt
               (fun c -> contains_token init c)
               mutable_constructors
           with
          | Some c -> add it.it_line name (Mutable_binding c)
          | None ->
              if
                String.contains init '{'
                && List.exists (contains_token init) mutable_field_names
              then
                add it.it_line name
                  (Mutable_binding "record with mutable fields"));
          if contains_token init "lazy" then add it.it_line name Toplevel_lazy
      | Some (_, _, true) | None -> ());
      (* occurrence detectors: anywhere in the item, functions
         included *)
      let enclosing =
        match let_binding it with Some (nm, _, _) -> nm | None -> "_"
      in
      let occurrences word =
        List.map
          (fun off -> it.it_line + line_of_offset it.it_text off - 1)
          (token_occurrences ~allow_dotted:true it.it_text word)
      in
      (* uses of the global PRNG: any [Random.<f>] except the explicit
         [Random.State] API and the deterministic seeding entry point
         [Random.init]/[full_init]; [self_init] is always a finding *)
      let random_dots =
        (* 'Random.' is not an identifier token; find it directly *)
        let acc = ref [] in
        let n = String.length it.it_text in
        let i = ref 0 in
        while !i + 7 <= n do
          if
            String.sub it.it_text !i 7 = "Random."
            && (!i = 0
               || (not (is_ident_char it.it_text.[!i - 1]))
                  && it.it_text.[!i - 1] <> '.')
          then acc := !i :: !acc;
          incr i
        done;
        List.rev !acc
      in
      List.iter
        (fun off ->
          let rest =
            String.sub it.it_text (off + 7) (String.length it.it_text - off - 7)
          in
          let l () = it.it_line + line_of_offset it.it_text off - 1 in
          if String.length rest >= 5 && String.sub rest 0 5 = "State" then ()
          else
            match first_ident rest with
            | Some ("init", _) | Some ("full_init", _) -> ()
            | Some (f, _) -> add (l ()) enclosing (Random_source ("Random." ^ f))
            | None -> ())
        random_dots;
      if not (in_obs file) then
        List.iter
          (fun tok ->
            List.iter
              (fun l -> add l enclosing (Wall_clock tok))
              (occurrences tok))
          wall_clock_tokens;
      let sorted = List.exists (contains_token ~allow_dotted:true it.it_text) sort_tokens in
      if not sorted then
        List.iter
          (fun tok ->
            List.iter
              (fun l -> add l enclosing (Hash_order_iteration tok))
              (occurrences tok))
          [ "Hashtbl.iter"; "Hashtbl.fold" ];
      List.iter
        (fun tok ->
          List.iter
            (fun l -> add l enclosing (Exit_or_signal_handler tok))
            (occurrences tok))
        [ "at_exit"; "Sys.signal"; "Sys.set_signal" ])
    items;
  (* stable order, then disambiguate duplicate keys with #k suffixes *)
  let ordered =
    List.sort
      (fun (l1, n1, k1) (l2, n2, k2) ->
        match Int.compare l1 l2 with
        | 0 -> compare (kind_tag k1, n1) (kind_tag k2, n2)
        | c -> c)
      (List.rev !findings)
  in
  let seen : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.map
    (fun (line, name, kind) ->
      let base = kind_tag kind ^ ":" ^ name in
      let count = Option.value (Hashtbl.find_opt seen base) ~default:0 in
      Hashtbl.replace seen base (count + 1);
      let key = if count = 0 then base else Printf.sprintf "%s#%d" base (count + 1) in
      {
        file;
        line;
        name;
        key;
        kind;
        classification = None;
        reason = None;
      })
    ordered

(* ------------------------------------------------------------------ *)
(* Annotations: comment pragmas. *)

(* A pragma annotates the nearest unannotated finding on its own line
   (trailing comment) or within the next three lines (comment above
   the binding). *)
let pragma_window = 3

let analyze sources =
  let all_findings = ref [] and diags = ref [] in
  List.iter
    (fun (file, text) ->
      let findings = scan_source ~file text in
      let _, pragmas = scrub_and_pragmas text in
      let findings = Array.of_list findings in
      (* pragma pass *)
      List.iter
        (fun p ->
          match classification_of_string p.p_word with
          | None ->
              diags :=
                D.warning ~code:"SL056" ~subject:file
                  (Printf.sprintf
                     "pragma at line %d: %S is not a classification \
                      (immutable-after-init | per-call | \
                      shared-cache-needs-lock | nondeterministic)"
                     p.p_line p.p_word)
                :: !diags
          | Some cls -> (
              let candidate = ref None in
              Array.iteri
                (fun i f ->
                  if
                    !candidate = None && f.classification = None
                    && f.line >= p.p_line
                    && f.line <= p.p_line + pragma_window
                  then candidate := Some i)
                findings;
              match !candidate with
              | Some i ->
                  findings.(i) <-
                    {
                      (findings.(i)) with
                      classification = Some cls;
                      reason = (if p.p_rest = "" then None else Some p.p_rest);
                    }
              | None ->
                  diags :=
                    D.warning ~code:"SL056" ~subject:file
                      (Printf.sprintf
                         "stale pragma at line %d: no finding within %d \
                          line(s) to annotate"
                         p.p_line pragma_window)
                    :: !diags))
        pragmas;
      all_findings := Array.to_list findings :: !all_findings)
    sources;
  let findings = List.concat (List.rev !all_findings) in
  let unannotated_diags =
    List.filter_map
      (fun f ->
        match f.classification with
        | Some _ -> None
        | None ->
            Some
              (D.warning ~code:(code_of_kind f.kind) ~subject:f.file
                 (Printf.sprintf
                    "%s `%s` at line %d is not classified; add a \
                     (* staticcheck: <class> <reason> *) pragma (key %s)"
                    (kind_describe f.kind) f.name f.line f.key)))
      findings
  in
  (findings, List.rev !diags @ unannotated_diags)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let analyze_files ~src_dirs =
  let missing, sources =
    List.fold_left
      (fun (missing, sources) dir ->
        if Sys.file_exists dir && Sys.is_directory dir then
          ( missing,
            sources
            @ List.filter_map
                (fun path ->
                  match read_file path with
                  | text -> Some (path, text)
                  | exception Sys_error _ -> None)
                (Source.ml_files_under dir) )
        else (dir :: missing, sources))
      ([], []) src_dirs
  in
  let findings, diags = analyze sources in
  let missing_diags =
    List.rev_map
      (fun dir ->
        D.error ~code:"SL000" ~subject:dir
          "source directory not found (run from the repository root, or pass \
           --src)")
      missing
  in
  (findings, missing_diags @ diags)

(* ------------------------------------------------------------------ *)
(* Rendering. *)

let schema_version = "slocal.staticcheck/1"

let finding_json f =
  let opt_str = function None -> Json.Null | Some s -> Json.String s in
  Json.Obj
    [
      ("file", Json.String f.file);
      ("line", Json.Int f.line);
      ("code", Json.String (code_of_kind f.kind));
      ("kind", Json.String (kind_tag f.kind));
      ("detail", Json.String (kind_detail f.kind));
      ("name", Json.String f.name);
      ("key", Json.String f.key);
      ( "class",
        opt_str (Option.map classification_to_string f.classification) );
      ("reason", opt_str f.reason);
    ]

let count_by proj findings =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun f ->
      match proj f with
      | None -> ()
      | Some k ->
          Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0))
    findings;
  Hashtbl.fold (fun k v acc -> (k, Json.Int v) :: acc) tbl []
  |> List.sort compare

let report_json ~roots findings =
  let annotated =
    List.length (List.filter (fun f -> f.classification <> None) findings)
  in
  Json.Obj
    [
      ("schema", Json.String schema_version);
      ("roots", Json.List (List.map (fun r -> Json.String r) roots));
      ("findings", Json.List (List.map finding_json findings));
      ( "summary",
        Json.Obj
          [
            ("total", Json.Int (List.length findings));
            ("annotated", Json.Int annotated);
            ("unannotated", Json.Int (List.length findings - annotated));
            ( "by_code",
              Json.Obj (count_by (fun f -> Some (code_of_kind f.kind)) findings)
            );
            ( "by_class",
              Json.Obj
                (count_by
                   (fun f ->
                     Option.map classification_to_string f.classification)
                   findings) );
          ] );
    ]

let pp_inventory fmt findings =
  let truncate n s =
    if String.length s <= n then s else String.sub s 0 (n - 1) ^ "…"
  in
  Format.fprintf fmt "%-36s %5s %-6s %-28s %-24s %s@." "file" "line" "code"
    "finding" "class" "reason";
  List.iter
    (fun f ->
      Format.fprintf fmt "%-36s %5d %-6s %-28s %-24s %s@."
        (truncate 36 f.file) f.line (code_of_kind f.kind)
        (truncate 28 (kind_tag f.kind ^ ":" ^ f.name))
        (match f.classification with
        | Some c -> classification_to_string c
        | None -> "UNANNOTATED")
        (truncate 48 (Option.value f.reason ~default:"")))
    findings;
  let annotated =
    List.length (List.filter (fun f -> f.classification <> None) findings)
  in
  Format.fprintf fmt
    "%d finding(s): %d classified, %d unannotated@." (List.length findings)
    annotated
    (List.length findings - annotated)
