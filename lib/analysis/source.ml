open Slocal_formalism
module Multiset = Slocal_util.Multiset
module D = Diagnostic

(* Mirror of the sectioning in [Problem.of_string]: collect the
   condensed configuration lines of each side, numbered from 1 within
   the side, ignoring blanks and [#] comments. *)
let side_lines text =
  let lines = String.split_on_char '\n' text in
  let section = ref `None in
  let white = ref [] and black = ref [] in
  List.iter
    (fun raw ->
      let line = String.trim raw in
      if line = "" || line.[0] = '#' then ()
      else if
        String.length line > 8 && String.sub line 0 8 = "problem "
        || (String.length line > 7 && String.sub line 0 7 = "labels:")
      then ()
      else if line = "white:" then section := `White
      else if line = "black:" then section := `Black
      else
        match !section with
        | `White -> white := line :: !white
        | `Black -> black := line :: !black
        | `None -> ())
    lines;
  (List.rev !white, List.rev !black)

(* SL005: scan one condensed line for non-canonical syntax.  Label
   names never contain '[', ']', '^' or whitespace (enforced by
   [Alphabet.valid_name]), so a lightweight character scan is exact. *)
let non_canonical_findings line =
  let n = String.length line in
  let findings = ref [] in
  let i = ref 0 in
  while !i < n do
    (match line.[!i] with
    | '[' ->
        let j = ref (!i + 1) in
        while !j < n && line.[!j] <> ']' do
          incr j
        done;
        if !j < n then begin
          let body = String.sub line (!i + 1) (!j - !i - 1) in
          let alts =
            String.split_on_char ' ' body |> List.filter (fun s -> s <> "")
          in
          (match alts with
          | [ a ] ->
              findings :=
                Printf.sprintf
                  "bracket group [%s] has a single alternative; write %s" a a
                :: !findings
          | _ ->
              if List.length (List.sort_uniq compare alts) <> List.length alts
              then
                findings :=
                  Printf.sprintf "bracket group [%s] repeats an alternative"
                    body
                  :: !findings);
          i := !j
        end
    | '^' ->
        let j = ref (!i + 1) in
        while !j < n && line.[!j] >= '0' && line.[!j] <= '9' do
          incr j
        done;
        if !j > !i + 1 then begin
          let k = int_of_string (String.sub line (!i + 1) (!j - !i - 1)) in
          if k = 0 then
            findings := "exponent ^0 produces an empty item" :: !findings
          else if k = 1 then
            findings := "exponent ^1 is redundant" :: !findings;
          i := !j - 1
        end
    | _ -> ());
    incr i
  done;
  List.rev !findings

let lint_source_sides ~subject (p : Problem.t) text =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let white_lines, black_lines = side_lines text in
  let lint_side side lines =
    (* SL004: a configuration generated by more than one line, or more
       than once by the same line.  Lines are read with multiplicities,
       since [Problem.parse_configs] would collapse the latter. *)
    let seen : (Multiset.t, int) Hashtbl.t = Hashtbl.create 64 in
    List.iteri
      (fun idx line ->
        let lineno = idx + 1 in
        let sl004 c fmt =
          Printf.ksprintf
            (fun msg ->
              add
                (D.warning ~code:"SL004" ~subject
                   ~location:(D.Source_line (side, lineno))
                   msg))
            fmt
            (Invariants.config_string p.Problem.alphabet c)
        in
        (* The configurations come sorted, so a configuration the line
           generates more than once is a run of equal neighbours. *)
        let rec scan = function
          | [] -> ()
          | c :: rest ->
              (match Hashtbl.find_opt seen c with
              | Some first ->
                  sl004 c
                    "configuration `%s` was already generated by line %d of \
                     this side (duplicate or subsumed condensed \
                     configuration)"
                    first
              | None -> Hashtbl.add seen c lineno);
              let rec skip = function
                | c' :: tl when Multiset.equal c c' -> skip tl
                | tl -> tl
              in
              let after = skip rest in
              if after != rest then
                sl004 c
                  "configuration `%s` is generated more than once by line %d \
                   of this side (duplicate within a constraint)"
                  lineno;
              scan after
        in
        (match Problem.parse_configs_multi p.Problem.alphabet line with
        | configs -> scan configs
        | exception Invalid_argument _ ->
            (* The whole-document parse already succeeded, so a
               per-line failure can only come from a line using [|]
               continuation oddly; ignore. *)
            ());
        List.iter
          (fun msg ->
            add
              (D.warning ~code:"SL005" ~subject
                 ~location:(D.Source_line (side, lineno))
                 ("non-canonical condensed syntax: " ^ msg)))
          (non_canonical_findings line))
      lines
  in
  lint_side D.White white_lines;
  lint_side D.Black black_lines;
  List.rev !diags

let lint_string ~subject text =
  match Problem.of_string text with
  | p -> (Some p, lint_source_sides ~subject p text)
  | exception Invalid_argument msg ->
      (None, [ D.error ~code:"SL000" ~subject ("unparsable problem: " ^ msg) ])

let lint_file path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> lint_string ~subject:path text
  | exception Sys_error msg ->
      (None, [ D.error ~code:"SL000" ~subject:path ("unreadable file: " ^ msg) ])

(* ------------------------------------------------------------------ *)
(* SL041: telemetry metric names registered in the source must appear
   in DESIGN.md §6's "Metric names" table, otherwise the
   documented inventory drifts silently as kernels gain counters. *)

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* Scan OCaml source text for [counter]/[histogram]
   applications whose argument is a string literal (qualified or not).
   A plain text scan — no lexer — is exact enough: registration sites
   are literal by convention, and a stray match inside a comment only
   adds a name that ought to be documented anyway. *)
let telemetry_registrations text =
  let n = String.length text in
  let kinds = [ "counter"; "histogram" ] in
  let found = ref [] in
  List.iter
    (fun kw ->
      let k = String.length kw in
      let i = ref 0 in
      while !i + k < n do
        if
          String.sub text !i k = kw
          && (!i = 0 || not (is_ident_char text.[!i - 1]))
        then begin
          let j = ref (!i + k) in
          while !j < n && (text.[!j] = ' ' || text.[!j] = '\t') do
            incr j
          done;
          if !j > !i + k && !j < n && text.[!j] = '"' then begin
            let e = ref (!j + 1) in
            while !e < n && text.[!e] <> '"' && text.[!e] <> '\n' do
              incr e
            done;
            if !e < n && text.[!e] = '"' then begin
              let name = String.sub text (!j + 1) (!e - !j - 1) in
              if name <> "" then found := (kw, name) :: !found;
              i := !e
            end
          end
        end;
        incr i
      done)
    kinds;
  List.sort_uniq compare !found

let backticked line =
  let n = String.length line in
  let tokens = ref [] and i = ref 0 in
  while !i < n do
    if line.[!i] = '`' then begin
      let j = ref (!i + 1) in
      while !j < n && line.[!j] <> '`' do
        incr j
      done;
      if !j < n then begin
        tokens := String.sub line (!i + 1) (!j - !i - 1) :: !tokens;
        i := !j
      end
    end;
    incr i
  done;
  List.rev !tokens

(* A documented name component: identifier characters only, so prose
   that happens to be backticked inside a table row (`slocal stats`)
   is not mistaken for a metric. *)
let is_name_token s =
  s <> ""
  && String.for_all (fun c -> is_ident_char c && c <> '\'') s

let design_metric_names text =
  let lines = String.split_on_char '\n' text in
  let rec skip_to_table = function
    | [] -> []
    | l :: rest ->
        if String.trim l = "### Metric names" then in_table rest []
        else skip_to_table rest
  and in_table lines acc =
    match lines with
    | [] -> List.rev acc
    | l :: rest ->
        let t = String.trim l in
        if String.starts_with ~prefix:"##" t then List.rev acc
        else if String.length t > 0 && t.[0] = '|' then
          in_table rest (t :: acc)
        else in_table rest acc
  in
  skip_to_table lines
  |> List.concat_map (fun row ->
         match backticked row with
         | prefix :: names
           when String.length prefix > 1
                && prefix.[String.length prefix - 1] = '.'
                && is_name_token (String.sub prefix 0 (String.length prefix - 1))
           ->
             List.filter_map
               (fun nm -> if is_name_token nm then Some (prefix ^ nm) else None)
               names
         | _ -> [])
  |> List.sort_uniq compare

let telemetry_name_findings ~design sources =
  let documented = design_metric_names design in
  let registered =
    List.map (fun (subject, text) -> (subject, telemetry_registrations text))
      sources
  in
  let table_missing =
    if documented = [] then
      [
        D.warning ~code:"SL041" ~subject:"DESIGN.md"
          "no \"Metric names\" table found in the design document";
      ]
    else []
  in
  let undocumented =
    List.concat_map
      (fun (subject, regs) ->
        List.filter_map
          (fun (kind, nm) ->
            if List.mem nm documented then None
            else
              Some
                (D.warning ~code:"SL041" ~subject
                   (Printf.sprintf
                      "telemetry %s %S is not documented in the DESIGN.md §6 \
                       name table"
                      kind nm)))
          regs)
      registered
  in
  (* The reverse direction: a table row naming a metric that no scanned
     source registers any more is stale. *)
  let registered_names =
    List.concat_map (fun (_, regs) -> List.map snd regs) registered
  in
  let stale =
    List.filter_map
      (fun nm ->
        if List.mem nm registered_names then None
        else
          Some
            (D.warning ~code:"SL041" ~subject:"DESIGN.md"
               (Printf.sprintf
                  "documented telemetry name %S is not registered by any \
                   scanned source"
                  nm)))
      documented
  in
  table_missing @ undocumented @ stale

let rec ml_files_under dir =
  match Sys.readdir dir with
  | entries ->
      Array.sort compare entries;
      Array.fold_left
        (fun acc entry ->
          let path = Filename.concat dir entry in
          if Sys.is_directory path then acc @ ml_files_under path
          else if Filename.check_suffix entry ".ml" then acc @ [ path ]
          else acc)
        [] entries
  | exception Sys_error _ -> []

let lint_telemetry_files ~design ~src_dirs =
  let read path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match read design with
  | exception Sys_error msg ->
      [
        D.error ~code:"SL000" ~subject:design
          ("unreadable design document: " ^ msg);
      ]
  | design_text ->
      let sources =
        List.concat_map ml_files_under src_dirs
        |> List.filter_map (fun path ->
               match read path with
               | text -> Some (path, text)
               | exception Sys_error _ -> None)
      in
      telemetry_name_findings ~design:design_text sources
