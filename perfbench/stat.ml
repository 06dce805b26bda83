(* Samples on bechamel's monotonic clock, and the order statistics the
   benchmark reports. *)

let now_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

let time f =
  let t0 = now_ms () in
  let r = f () in
  (r, now_ms () -. t0)

(* linear interpolation between closest ranks; 0 for no samples *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* one measured statement: its query, its wall-clock time and that time
   in reference milliseconds (see Host) *)
type sample = { query : int; wall_ms : float; ms : float }

let sample query wall_ms factor = { query; wall_ms; ms = wall_ms *. factor }
let p95 xs = quantile 0.95 xs

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* VmHWM of a process, in MiB: the peak resident set since it started *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some l -> (
            match Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> kb) with
            | Some kb -> float_of_int kb /. 1024.
            | None -> go ())
      in
      go ())

(* Host speed.  The 2-core virtual machine this benchmark was defined on
   shares its last-level cache and memory with other tenants whose load
   shifts every few seconds to minutes: the same statement's median wall
   time moved by 25% between consecutive 20 s runs with no change to the
   program.  A run therefore probes the host once per cycle of the mix
   and reports its times scaled to the probe's nominal speed: reference
   milliseconds ("ref_ms").

   The probe first sweeps its own 16 MiB buffer, so whatever the engine
   left in the caches the timed part starts from the same state, then
   times dependent random walks through the buffer (an L1 miss per step,
   mostly served from the last-level cache, like a hash probe).  It allocates nothing and shares no code with the
   engine.  Each cycle of the mix is scaled by the mean of the probes
   taken just before and just after it; on the defining host that
   removed half to two thirds of the spread of 20 s medians.  The
   wall-clock figures are printed beside the scaled ones. *)
module Host = struct
  let slots = 1 lsl 21
  let steps = 10_000

  (* about the probe's median on the defining host (2-vCPU Xeon VM,
     OCaml 5.1) when it was quiet; only a scale, the same for every run *)
  let nominal_ms = 1.2

  (* Sattolo's shuffle: one cycle through every slot *)
  let buffer =
    lazy
      (let g = Eager_workload.Gen.make 7 in
       let next = Array.init slots Fun.id in
       for i = slots - 1 downto 1 do
         let j = Eager_workload.Gen.int g i in
         let t = next.(i) in
         next.(i) <- next.(j);
         next.(j) <- t
       done;
       next)

  (* the fastest of three walks, each along a fresh stretch of the
     cycle: a walk the scheduler or another thread of this process
     interrupted reads slow, the host's own slowness slows all three *)
  let probe () =
    let next = Lazy.force buffer in
    let sum = ref 0 in
    for i = 0 to slots - 1 do
      sum := !sum + Array.unsafe_get next i
    done;
    ignore (Sys.opaque_identity !sum);
    let j = ref 0 and best = ref infinity in
    for _ = 1 to 3 do
      let t0 = now_ms () in
      for _ = 1 to steps do
        j := Array.unsafe_get next !j
      done;
      best := Float.min !best (now_ms () -. t0)
    done;
    ignore (Sys.opaque_identity !j);
    !best

  type t = { mutable last : float; mutable probes : float list }

  let create () =
    let p = probe () in
    { last = p; probes = [ p ] }

  (* Probe now; the factor that turns the wall-clock times measured since
     the previous probe into reference time *)
  let sample t =
    let k = probe () in
    let factor = nominal_ms /. ((t.last +. k) /. 2.) in
    t.last <- k;
    t.probes <- k :: t.probes;
    factor
end
