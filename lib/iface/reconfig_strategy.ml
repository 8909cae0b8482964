type prepare = [ `At_wedge | `Early ]
type handoff = [ `Speculative | `Blocking ]
type residuals = [ `Resubmit | `Client_retry ]

type t = {
  name : string;
  aliases : string list;
  prepare : prepare;
  handoff : handoff;
  residuals : residuals;
}

let composed =
  {
    name = "composed";
    aliases = [ "core" ];
    prepare = `At_wedge;
    handoff = `Speculative;
    residuals = `Resubmit;
  }

let matchmaker =
  {
    name = "matchmaker";
    aliases = [];
    prepare = `Early;
    handoff = `Speculative;
    residuals = `Resubmit;
  }

let stopworld =
  {
    name = "stopworld";
    aliases = [ "stop-the-world" ];
    prepare = `At_wedge;
    handoff = `Blocking;
    residuals = `Client_retry;
  }

let all = [ composed; matchmaker; stopworld ]

let find name =
  List.find_opt
    (fun s -> String.equal s.name name || List.mem name s.aliases)
    all
