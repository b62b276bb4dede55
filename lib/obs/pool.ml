(* A Domainslib-style work pool on the OCaml 5 stdlib: the primary
   domain plus [jobs - 1] spawned domains race over a shared atomic
   task index and write results into index-addressed slots, so the
   result array is byte-identical to a sequential run whatever the
   schedule.  Each spawned worker records telemetry into a private
   store (see Telemetry) and returns it from the domain; after the
   joins the caller absorbs the stores in worker order.  Every worker
   wraps its claiming loop in a [par.worker] span. *)

let c_submitted = Telemetry.counter "par.tasks_submitted"
let c_completed = Telemetry.counter "par.tasks_completed"
let c_stolen = Telemetry.counter "par.tasks_stolen"
let c_merges = Telemetry.counter "par.merges"

let run ~jobs n f =
  if n < 0 then invalid_arg "Pool.run: negative task count";
  if n = 0 then [||]
  else if jobs <= 1 || n = 1 then begin
    (* The sequential path: no spawn, no atomics on the task index,
       results in order by construction. *)
    Telemetry.add c_submitted n;
    Array.init n (fun i ->
        let r = f i in
        Telemetry.incr c_completed;
        r)
  end
  else begin
    let jobs = min jobs n in
    Telemetry.add c_submitted n;
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failed : exn option Atomic.t = Atomic.make None in
    let worker ~primary () =
      Telemetry.span "par.worker" @@ fun () ->
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else
          match f i with
          | r ->
              (* Distinct slots: no two workers ever write the same
                 cell, and the joins below publish every write. *)
              results.(i) <- Some r;
              Telemetry.incr c_completed;
              if not primary then Telemetry.incr c_stolen
          | exception e ->
              (* Remember the first failure; later tasks still run so
                 the counters and the trace stay complete. *)
              ignore (Atomic.compare_and_set failed None (Some e))
      done
    in
    let spawned =
      List.init (jobs - 1) (fun _ ->
          Domain.spawn (fun () ->
              let store = Telemetry.private_store () in
              worker ~primary:false ();
              store))
    in
    let join () =
      List.iter Telemetry.absorb (List.map Domain.join spawned);
      Telemetry.add c_merges (jobs - 1)
    in
    (match worker ~primary:true () with
    | () -> ()
    | exception e ->
        (* Never leave workers unjoined, whatever the primary did. *)
        join ();
        raise e);
    join ();
    (match Atomic.get failed with Some e -> raise e | None -> ());
    Array.map
      (function
        | Some r -> r
        | None -> invalid_arg "Pool.run: task failed without a result")
      results
  end

let map ~jobs f l =
  let arr = Array.of_list l in
  Array.to_list (run ~jobs (Array.length arr) (fun i -> f arr.(i)))
